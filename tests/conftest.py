"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import os
import random
import select
import subprocess
from typing import IO, Iterable, Optional, Set, Tuple

import pytest
from hypothesis import HealthCheck, settings

from repro import datasets
from repro.core.rect import KPE
from repro.kernels.shm import SEGMENT_PREFIX, _segment_creator_pid

# Let the process-pool tests exercise real multi-worker fan-out even on
# single-core CI boxes, where PBSM(workers=) would otherwise clamp to 1.
os.environ.setdefault("REPRO_MAX_WORKERS", "4")

# A moderate default so the full suite stays fast; CI-style deep runs can
# select the "thorough" profile via HYPOTHESIS_PROFILE.
settings.register_profile(
    "default",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "thorough",
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(autouse=True)
def _fresh_clamp_warnings():
    """Clamp RuntimeWarnings fire once per process; re-arm them per test."""
    from repro.pbsm.parallel import _WARNED_CLAMPS

    _WARNED_CLAMPS.clear()
    yield


def spans_of_kind(tracer, kind: str) -> list:
    """The finished spans of *tracer* of one kind, in finishing order."""
    return [span for span in tracer.spans if span.kind == kind]


def descendants(roots: Iterable[int]) -> Set[int]:
    """Every live process below one of *roots* (Linux ``/proc``)."""
    roots = set(roots)
    parent_of = {}
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as stat:
                    # "pid (comm) state ppid ...": comm may hold spaces.
                    parent_of[int(entry)] = int(stat.read().rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError, IndexError):
                continue  # exited while we were reading
    found = set(roots)
    grew = True
    while grew:
        below = {child for child, parent in parent_of.items() if parent in found}
        grew = not below <= found
        found |= below
    return found - roots


def cmdline(pid: int) -> str:
    """The command line of live process *pid* (empty once it has exited)."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as raw:
            return raw.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def readline_within(stream: IO[str], seconds: float) -> str:
    """The next line of a child's *stream*; ``""`` when none starts
    arriving within *seconds* (or the child closed it)."""
    ready, _, _ = select.select([stream], [], [], seconds)
    return stream.readline() if ready else ""


def finish(
    child: "subprocess.Popen[str]", stdin: Optional[str] = None, seconds: float = 30.0
) -> Tuple[str, str]:
    """``child.communicate(stdin)``, killing *child* when it has not
    ended within *seconds* (the timeout still fails the test)."""
    try:
        return child.communicate(stdin, timeout=seconds)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise


class OwnShmSegments:
    """The ``repro_shm_*`` segments this test's process tree has left behind.

    ``/dev/shm`` is the host's: a benchmark or a second pytest next door
    creates and unlinks segments of its own all the time, so asserting
    on every name there fails for reasons that are not this test's.  A
    segment name carries its creator's pid
    (``repro_shm_<pid>_<seq>_<hex>``); calling the helper returns the
    names that appeared since the test began *and* were created by this
    process or one of its descendants.  Pool workers are recorded as
    they are started (a worker is usually gone by the time a test
    looks); any other descendant — a ``repro serve`` child and its
    workers — is recorded by each call made while it is alive.
    """

    def __init__(self) -> None:
        self.before = self._names()
        self.pids = {os.getpid()}

    @staticmethod
    def _names():
        if not os.path.isdir("/dev/shm"):
            return set()
        return {n for n in os.listdir("/dev/shm") if n.startswith(SEGMENT_PREFIX)}

    def record_descendants(self) -> None:
        """Add every live process below a recorded one."""
        self.pids |= descendants(self.pids)

    def __call__(self):
        self.record_descendants()
        return {
            name
            for name in self._names() - self.before
            if _segment_creator_pid(name) in self.pids
        }


@pytest.fixture
def own_shm_segments(monkeypatch):
    """An :class:`OwnShmSegments` snapshot taken as the test begins."""
    from multiprocessing.process import BaseProcess

    segments = OwnShmSegments()
    start = BaseProcess.start

    def recording_start(process):
        start(process)
        segments.pids.add(process.pid)

    monkeypatch.setattr(BaseProcess, "start", recording_start)
    return segments


#: Ends a test id in ``-hash``, the name of PBSM's tile-to-partition
#: mapping: ids recorded while a second mapping existed keep their shape.
HASH_ID = pytest.mark.parametrize((), [pytest.param(id="hash")])


def random_kpes(n: int, seed: int, start_oid: int = 0, max_edge: float = 0.1):
    """Plain-random KPEs with a plain `random.Random`."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        x = rng.random()
        y = rng.random()
        w = rng.random() * max_edge
        h = rng.random() * max_edge
        out.append(KPE(start_oid + i, x, y, x + w, y + h))
    return out


@pytest.fixture
def pair_decodes(monkeypatch):
    """The index slices every ``PairRows._decode`` call from here on was
    given: a row-backed ``result.pairs`` turned into tuples."""
    from repro.core.result import PairRows

    calls = []
    decode = PairRows._decode

    def spy(self, index, *args):
        calls.append(index)
        return decode(self, index, *args)

    monkeypatch.setattr(PairRows, "_decode", spy)
    return calls


@pytest.fixture
def small_pair():
    """Two small random relations with a few hundred result pairs."""
    left = random_kpes(200, seed=11, max_edge=0.06)
    right = random_kpes(200, seed=22, start_oid=10_000, max_edge=0.06)
    return left, right


@pytest.fixture
def clustered_pair():
    """Skewed relations (cluster hot spots)."""
    left = datasets.clustered_rects(300, seed=5)
    right = datasets.clustered_rects(300, seed=6, start_oid=10_000)
    return left, right


@pytest.fixture
def uniform_pair():
    """Unskewed relations from the numpy generator."""
    left = datasets.uniform_rects(250, seed=3, mean_edge=0.02)
    right = datasets.uniform_rects(250, seed=4, mean_edge=0.02, start_oid=10_000)
    return left, right
