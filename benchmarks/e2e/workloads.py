"""The four workloads: set-up, the timed op, its check, teardown.

Every workload follows one protocol (``setup`` / ``op`` / ``verify`` /
``peak_rss_mb`` / ``teardown``); :mod:`benchmarks.e2e.harness` drives it
in blocks and owns all timing.  ``op`` returns whatever ``verify`` needs
and must have consumed the result before it returns.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from benchmarks.e2e import procs
from benchmarks.e2e.reference import Expected, check_pairs
from benchmarks.e2e.server import ServerProcess
from benchmarks.e2e.specs import Dataset, make_relations

Pairs = List[Tuple[int, int]]


@dataclass
class Outcome:
    """What one op returned: the pairs it delivered and the program's own
    account of the run (``JoinStats`` for lib ops, the summary message
    for served ops)."""

    pairs: Optional[Pairs]
    stats: Any = None
    summary: Optional[Dict[str, Any]] = None


class Workload:
    """Common state: the dataset, the benchmark seed, the run's temp dir."""

    #: the ``repro serve`` subprocess of a served workload
    server: Optional[ServerProcess] = None
    #: whether a served op asks for the pairs, not only the summary
    stream = False

    def __init__(self, dataset: Dataset, seed: int, tmpdir: Path) -> None:
        self.dataset = dataset
        self.seed = seed
        self.tmpdir = tmpdir
        self.left: List[tuple] = []
        self.right: List[tuple] = []

    @property
    def memory_bytes(self) -> int:
        from repro import mb

        return mb(self.dataset.memory_mb)

    def generate(self) -> None:
        self.left, self.right = make_relations(self.dataset, self.seed)

    def write_files(self) -> Tuple[Path, Path]:
        from repro.kernels import write_rcd

        paths = (self.tmpdir / "L.rcd", self.tmpdir / "R.rcd")
        write_rcd(self.left, paths[0])
        write_rcd(self.right, paths[1])
        return paths

    # -- protocol ------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def op(self) -> Outcome:
        raise NotImplementedError

    def verify(self, outcome: Outcome, expected: Expected) -> Optional[str]:
        """Why the op failed, or ``None``.  Runs outside the timed window."""
        return check_pairs(outcome.pairs, expected)

    def peak_rss_mb(self) -> float:
        return procs.vm_hwm_mb(os.getpid())

    def pids(self) -> List[int]:
        """Processes whose shared-memory segments this workload answers for."""
        return [os.getpid()]

    def teardown(self) -> None:
        self.left = self.right = []


class LibDefault(Workload):
    """``spatial_join(R, S, memory)`` with library defaults on KPE lists."""

    def setup(self) -> None:
        self.generate()
        self.op()  # warm-up: imports, allocator, caches

    def op(self) -> Outcome:
        from repro import spatial_join

        result = spatial_join(self.left, self.right, self.memory_bytes)
        return Outcome([(l, r) for l, r in result.pairs], stats=result.stats)


class LibMappedAuto(Workload):
    """Open two ``.rcd`` files, plan cold, join, consume the pairs."""

    def setup(self) -> None:
        self.generate()
        self.paths = self.write_files()
        self.op()

    def op(self) -> Outcome:
        from repro import PlannerCache, spatial_join
        from repro.datasets import load_relation

        left = load_relation(self.paths[0])
        right = load_relation(self.paths[1])
        try:
            result = spatial_join(
                left, right, self.memory_bytes, method="auto", cache=PlannerCache()
            )
            return Outcome([(l, r) for l, r in result.pairs], stats=result.stats)
        finally:
            left.store.close()
            right.store.close()


class Serve(Workload):
    """One client against a ``repro serve`` subprocess with pinned datasets.

    Set-up is the service's cold path: write the files, spawn the server,
    wait for ``ping``, run the first query (plan miss, pool use, registry
    pin).  ``stream=False`` asks for the summary only and requires a plan
    cache hit; ``stream=True`` receives and decodes every pair.
    """

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self._stopped: List[int] = []

    def setup(self) -> None:
        self.generate()
        left_rcd, right_rcd = self.write_files()
        self.server = ServerProcess(self.tmpdir, left_rcd, right_rcd)
        self.server.start()
        self.op()

    def op(self) -> Outcome:
        summary, pairs = self.server.join(
            memory_mb=self.dataset.memory_mb, include_pairs=self.stream
        )
        return Outcome(pairs if self.stream else None, summary=summary)

    def verify(self, outcome: Outcome, expected: Expected) -> Optional[str]:
        summary = outcome.summary
        if not summary.get("ok") or not summary.get("done"):
            return f"server answered {summary.get('error', 'no summary')}: {summary.get('message')}"
        if summary["n_results"] != expected.n_pairs:
            return f"{summary['n_results']} results, expected {expected.n_pairs}"
        if summary["checksum"] != expected.checksum:
            return "server checksum differs from the brute-force reference"
        if self.stream:
            return check_pairs(outcome.pairs, expected)
        if not summary["from_cache"]:
            return "plan was not served from the plan cache"
        return None

    def peak_rss_mb(self) -> float:
        return procs.tree_peak_rss_mb(self.server.pid)

    def pids(self) -> List[int]:
        live = self.server.tree() if self.server is not None else []
        return sorted({os.getpid(), *self._stopped, *live})

    def teardown(self) -> None:
        super().teardown()
        if self.server is not None:
            try:
                self.server.stop()
            finally:
                self._stopped = self.server.seen_pids
                self.server = None


class ServeStream(Serve):
    stream = True


WORKLOAD_CLASSES = {
    "lib_default": LibDefault,
    "lib_mapped_auto": LibMappedAuto,
    "serve_hot": Serve,
    "serve_stream": ServeStream,
}
