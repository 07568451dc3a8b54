"""The traced run: one block with spans, then a replay of every layer.

End-to-end metrics are measured with tracing off (:mod:`harness`).  This
module produces the per-layer numbers in a separate run: it drives one
block of the workload with a span around every step, then calls each
layer's *public* function on the workload's real inputs and reports the
median.  Spans are recorded here, around the calls — spans inside
``src/`` are a later change — kept in memory, and written out when the
run ends.  Counts come from the program's own result fields
(``JoinStats``, the join summary, the ``stats`` op).  Like the end-to-end
timings, every time here is at reference speed (:mod:`speed`), the
program's own clock readings included: each is scaled by the speed of the
op or call it was read from.

A traced run prints every per-layer metric, so it calls every layer on
its workload's dataset; the layers the workload's op or set-up runs
through (``ON_PATH``) are called ``REPS`` times and the median reported,
the others once.  ``trace.path_coverage`` sums the replayed layers on the
op's blocking path — only layers measured by calling them — and divides
by the block's median op: what is missing from 1 is work no replay covers.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from benchmarks.e2e import harness, procs
from benchmarks.e2e.server import WORKERS, ServerProcess
from benchmarks.e2e.specs import PER_LAYER
from benchmarks.e2e.speed import SpeedSensors, cpu_times
from benchmarks.e2e.workloads import LibMappedAuto, Serve, Workload

#: Calls per layer function on a workload's path; the median is reported.
REPS = 5
#: Server spawns replayed for a served workload (3 to 4 s each).
SPAWNS = 3
#: Ops of the traced block; they alternate spanned / plain.
TRACED_OPS = 8

_EVERY = frozenset({"datasets.generate", "assign.partition_plan", "partitioner.partition_relation"})
_FILES = frozenset(
    {
        "mmapstore.write_rcd",
        "mmapstore.open",
        "mmapstore.materialize",
        "columnar.from_kpes_mapped",
        "planner.relation_fingerprint",
        "sweep.forward_scan_batches",
    }
)
_SERVED = _EVERY | _FILES | frozenset(
    {
        "planner.plan_join.hit",
        "shm.create",
        "registry.register_file",
        "engine.start",
        "engine.plan.hit",
        "engine.execute",
        "admission.slot",
        "protocol.result_checksum",
    }
)
#: Spans replayed ``REPS`` times per workload: the layers its op or its
#: set-up runs through (README, "moves").  The cold planner is on a served
#: workload's set-up path too, but costs 1.5 to 3.5 s a call; there the
#: ``SPAWNS`` first queries are its samples.
ON_PATH = {
    "lib_default": _EVERY
    | {"internal.sweep_list", "refpoint.rpm_scalar", "result.consume"},
    "lib_mapped_auto": _EVERY
    | _FILES
    | {
        "planner.profile_join",
        "planner.enumerate_candidates",
        "planner.plan_join.cold",
        "columnar.from_kpes_list",
        "twolayer.join_ids",
        "result.consume",
    },
    "serve_hot": _SERVED | {"rpm.join_ids"},
    "serve_stream": _SERVED
    | {"twolayer.join_ids", "protocol.paginate_encode", "protocol.decode"},
}

RESULTS_DIR = Path(__file__).with_name("results")


class SpanRecorder:
    """Spans ``{id, name, start, end, parent, workload, op}`` kept in memory;
    a span that measures something also carries the ``speed`` of the CPUs
    its work ran on (:mod:`speed`) and its ``ms`` at reference speed."""

    def __init__(self, workload: str, sensors: SpeedSensors) -> None:
        self.workload = workload
        self.sensors = sensors
        self.on_path = ON_PATH[workload]
        self.spans: List[Dict[str, Any]] = []
        self.op: Optional[int] = None
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        record = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "op": self.op,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def _measured_pids(self) -> List[int]:
        """This process and whatever it spawned, the sensors excepted."""
        return sorted(set(procs.process_tree(os.getpid())) - set(self.sensors.pids))

    @contextmanager
    def timed(self, name: str) -> Iterator[Dict[str, Any]]:
        """A span that, once closed, knows its ``speed`` and its ``ms``."""
        before = cpu_times(self._measured_pids())
        with self.span(name) as record:
            yield record
        record["speed"] = self.sensors.speed(
            record["start"], record["end"], before, cpu_times(self._measured_pids())
        )
        record["ms"] = 1000.0 * (record["end"] - record["start"]) * record["speed"]

    def measure(self, name: str, call: Callable[[], Any]) -> Tuple[float, Any]:
        """Median milliseconds of *call* over its spans — ``REPS`` of them
        if the workload runs through the layer, else one — and its last
        result (``spans[-1]`` is the span that returned it)."""
        samples = []
        result = None
        gc.collect()  # once per layer: a full collection of this heap takes 70 ms
        for _ in range(REPS if name in self.on_path else 1):
            result = None  # free the previous result outside the timed call
            with self.timed(name) as record:
                result = call()
            samples.append(record["ms"])
        return statistics.median(samples), result

    def write(self, path: Path) -> None:
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


# ----------------------------------------------------------------------
# the traced block
# ----------------------------------------------------------------------
@dataclass
class _ServedOps:
    """Served ops as the client and the server saw them — client latency
    and the summary's ``elapsed_seconds`` per op, both at reference speed —
    and the server's ``stats`` before and after each stretch of ops."""

    latencies_s: List[float] = field(default_factory=list)
    elapsed_s: List[float] = field(default_factory=list)
    stats_around: List[Tuple[Dict[str, Any], Dict[str, Any]]] = field(default_factory=list)


class _BlockObserver:
    """Per-op bookkeeping of the traced block: alternating spanned and
    plain ops, CPU seconds of the process tree, the server's view."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        #: ``(JoinStats, speed)`` of every lib op that passed its check
        self.stats: List[Tuple[Any, float]] = []
        self.served = _ServedOps()
        self._stats_before: Optional[Dict[str, Any]] = None
        self.spanned_s: List[float] = []
        self.plain_s: List[float] = []
        self.cpu_s = 0.0

    def __call__(self, workload: Workload, expected: Any, block: harness.BlockResult, sensors: SpeedSensors) -> None:
        server = workload.server
        if server is not None and self._stats_before is None:
            self._stats_before = server.stats()
        spanned = block.attempted % 2 == 0
        self.recorder.op = block.attempted
        pids = workload.pids()
        cpu_before = procs.cpu_seconds(pids)
        outcome = harness.timed_op(
            workload, expected, block, sensors, self.recorder.span if spanned else harness.no_span
        )
        cpu_s = procs.cpu_seconds(pids) - cpu_before
        self.recorder.op = None
        if outcome is not None:
            op = block.ops[-1]
            self.cpu_s += cpu_s * op.speed
            (self.spanned_s if spanned else self.plain_s).append(op.at_ref_s)
            if server is None:
                self.stats.append((outcome.stats, op.speed))
            else:
                self.served.latencies_s.append(op.at_ref_s)
                self.served.elapsed_s.append(outcome.summary["elapsed_seconds"] * op.speed)
        if server is not None:
            self.served.stats_around = [(self._stats_before, server.stats())]


# ----------------------------------------------------------------------
# layer replays
# ----------------------------------------------------------------------
def _grid(left: Sequence[tuple], right: Sequence[tuple], n_partitions: int) -> Any:
    """The tile grid the PBSM drivers build for this join."""
    from repro import Space
    from repro.pbsm import TileGrid

    return TileGrid.for_partitions(Space.of(left, right), n_partitions)


def _partition(left: Any, right: Any, grid: Any, emit: str) -> Tuple[list, list]:
    from repro import CostModel, CpuCounters, SimulatedDisk
    from repro.pbsm import partition_relation

    cost = CostModel()
    disk = SimulatedDisk(cost)
    counters = CpuCounters()
    left_files, _ = partition_relation(left, grid, disk, cost.kpe_bytes, counters, "R", emit=emit)
    right_files, _ = partition_relation(right, grid, disk, cost.kpe_bytes, counters, "S", emit=emit)
    return left_files, right_files


def _replay_partitioner(rec: SpanRecorder, m: Dict[str, float], left: Any, right: Any, grid: Any, emit: str) -> None:
    """The partitioner as the workload's own join calls it: on lists or on
    the mapped facade, emitting records or ids."""
    from repro.kernels import partition_plan

    m["assign.partition_plan_ms"], _ = rec.measure(
        "assign.partition_plan",
        lambda: (partition_plan(left, grid), partition_plan(right, grid)),
    )
    m["partitioner.partition_tuple_ms"], _ = rec.measure(
        "partitioner.partition_relation", lambda: _partition(left, right, grid, emit)
    )


def _replay_tuple_engine(rec: SpanRecorder, m: Dict[str, float], partitions: List[Tuple[list, list]], grid: Any) -> None:
    """``sweep_list`` over every partition pair, then the scalar RPM test
    over the pairs it detected — the two halves of lib_default's join phase."""
    from repro import CpuCounters, internal_algorithm, reference_point

    sweep_list = internal_algorithm("sweep_list")
    counters = CpuCounters()

    def sweep() -> List[Tuple[int, tuple, tuple]]:
        counters.reset()
        detected: List[Tuple[int, tuple, tuple]] = []
        for pid, (records_left, records_right) in enumerate(partitions):
            sweep_list(
                records_left,
                records_right,
                lambda r, s, pid=pid: detected.append((pid, r, s)),
                counters,
            )
        return detected

    m["internal.sweep_list_ms"], detected = rec.measure("internal.sweep_list", sweep)
    m["internal.sweep_list_tests"] = counters.intersection_tests

    def own() -> int:
        owned = 0
        partition_of_point = grid.partition_of_point
        for pid, r, s in detected:
            x, y = reference_point(r, s)
            if partition_of_point(x, y) == pid:
                owned += 1
        return owned

    m["refpoint.rpm_scalar_ms"], _ = rec.measure("refpoint.rpm_scalar", own)


def _columnar_partitions(left: Any, right: Any, grid: Any) -> List[Tuple[int, Any, Any]]:
    """Each partition pair as two ``ColumnarRelation`` row gathers."""
    import numpy as np

    from repro.kernels import ColumnarRelation
    from repro.pbsm import partition_csr

    def gather(cols: Any, ids: Any) -> Any:
        return ColumnarRelation(cols.oid[ids], cols.xl[ids], cols.yl[ids], cols.xh[ids], cols.yh[ids])

    sides = []
    for relation, files in zip((left, right), _partition(left, right, grid, "ids")):
        offsets, ids = partition_csr(files)
        sides.append((ColumnarRelation.from_kpes(relation), offsets, np.asarray(ids, dtype=np.int64)))
    (lc, lo, li), (rc, ro, ri) = sides
    return [
        (pid, gather(lc, li[lo[pid] : lo[pid + 1]]), gather(rc, ri[ro[pid] : ro[pid + 1]]))
        for pid in range(grid.n_partitions)
    ]


def _replay_kernels(rec: SpanRecorder, m: Dict[str, float], left: Any, right: Any, grid: Any) -> None:
    """The forward-scan kernel and both id-pair dedup kernels, each summed
    over every partition pair."""
    from repro import CpuCounters
    from repro.kernels import forward_scan_batches, rpm_join_ids, twolayer_join_ids

    partitions = _columnar_partitions(left, right, grid)
    presorted = [(a.sort_by_xl(), b.sort_by_xl()) for _, a, b in partitions]
    counters = CpuCounters()

    def scan() -> int:
        counters.reset()
        results = 0
        for a, b in presorted:
            for a_idx, _ in forward_scan_batches(a, b, counters):
                results += len(a_idx)
        return results

    m["sweep.forward_scan_ms"], results = rec.measure("sweep.forward_scan_batches", scan)
    m["sweep.batch_ops_per_result"] = counters.batch_ops / results

    for dedup, join_ids in (("rpm", rpm_join_ids), ("twolayer", twolayer_join_ids)):

        def join() -> int:
            scratch = CpuCounters()
            return sum(len(join_ids(a, b, grid, pid, scratch)[0]) for pid, a, b in partitions)

        m[f"{dedup}.join_ids_ms"], _ = rec.measure(f"{dedup}.join_ids", join)


def _replay_files(rec: SpanRecorder, m: Dict[str, float], workload: Workload) -> Tuple[Any, Any]:
    """write -> open -> materialise; returns the two open mapped relations."""
    from repro.datasets import load_relation
    from repro.kernels import ColumnarRelation

    m["mmapstore.write_rcd_ms"], paths = rec.measure("mmapstore.write_rcd", workload.write_files)
    m["rcd.bytes_per_record"] = sum(p.stat().st_size for p in paths) / (2 * workload.dataset.n)

    def open_both() -> Tuple[Any, Any]:
        return load_relation(paths[0]), load_relation(paths[1])

    opened: List[Tuple[Any, Any]] = []
    m["mmapstore.open_ms"], _ = rec.measure("mmapstore.open", lambda: opened.append(open_both()))
    for pair in opened[:-1]:
        for relation in pair:
            relation.store.close()
    left, right = opened[-1]
    m["mmapstore.materialize_ms"], _ = rec.measure(
        "mmapstore.materialize", lambda: (list(left), list(right))
    )
    m["columnar.from_kpes_mapped_ms"], _ = rec.measure(
        "columnar.from_kpes_mapped",
        lambda: (ColumnarRelation.from_kpes(left), ColumnarRelation.from_kpes(right)),
    )
    return left, right


def _replay_planner(rec: SpanRecorder, m: Dict[str, float], left: Any, right: Any, memory_bytes: int, workers: int) -> Any:
    """The planner's steps one by one, then whole: cold and from the cache."""
    from repro import PlannerCache, plan_join
    from repro.planner import enumerate_candidates, profile_join, relation_fingerprint

    m["planner.fingerprint_ms"], _ = rec.measure(
        "planner.relation_fingerprint",
        lambda: (relation_fingerprint(left), relation_fingerprint(right)),
    )
    m["planner.profile_ms"], profile = rec.measure(
        "planner.profile_join", lambda: profile_join(left, right, PlannerCache())
    )
    m["planner.enumerate_ms"], candidates = rec.measure(
        "planner.enumerate_candidates",
        lambda: enumerate_candidates(profile, memory_bytes, workers=workers),
    )
    m["planner.candidates"] = len(candidates)
    caches: List[Any] = []

    def plan_cold() -> Any:
        caches.append(PlannerCache())
        return plan_join(left, right, memory_bytes, cache=caches[-1], workers=workers)

    m["planner.plan_cold_ms"], plan = rec.measure("planner.plan_join.cold", plan_cold)
    m["planner.plan_hit_ms"], hit = rec.measure(
        "planner.plan_join.hit",
        lambda: plan_join(left, right, memory_bytes, cache=caches[-1], workers=workers),
    )
    if not hit.from_cache:
        raise RuntimeError("a repeated plan_join on a warm cache re-planned")
    return plan


def _own_join(m: Dict[str, float], stats: Sequence[Tuple[Any, float]], planning_s: Optional[float] = None) -> None:
    """What the program reports about the workload's own join: phase times
    (medians over *stats*, each ``JoinStats`` with the speed of the op or
    call it came from) and the replication / duplicate accounting."""
    from repro.core.phases import PHASE_JOIN, PHASE_PARTITION

    def median_ms(read: Callable[[Any], float]) -> float:
        return 1000.0 * statistics.median(read(s) * speed for s, speed in stats)

    m["pbsm.phase_partition_ms"] = median_ms(lambda s: s.wall_seconds_by_phase.get(PHASE_PARTITION, 0.0))
    m["pbsm.phase_join_ms"] = median_ms(lambda s: s.wall_seconds_by_phase.get(PHASE_JOIN, 0.0))
    m["pbsm.planning_ms"] = median_ms(lambda s: s.planning_seconds) if planning_s is None else 1000.0 * planning_s
    last = stats[-1][0]
    m["partitioner.n_partitions"] = last.n_partitions
    m["partitioner.replication_rate"] = last.replication_rate
    m["partitioner.replicas_created"] = last.replicas_created
    m["pbsm.repartition_events"] = last.repartition_events
    m["dedup.duplicates_suppressed"] = last.duplicates_suppressed
    m["dedup.useful_ratio"] = last.n_results / (last.n_results + last.duplicates_suppressed)


def _first_message_ms(socket_path: str, request: Dict[str, Any]) -> float:
    """Milliseconds from sending *request* to its first response line (the
    first page of a streamed join, or the summary of a summary-only one);
    the rest of the response is drained after the clock stops."""
    from repro.serve.protocol import MAX_LINE_BYTES, decode_message, encode_message

    async def exchange() -> float:
        reader, writer = await asyncio.open_unix_connection(socket_path, limit=MAX_LINE_BYTES)
        try:
            started = time.perf_counter()
            writer.write(encode_message(request))
            await writer.drain()
            line = await reader.readline()
            elapsed = time.perf_counter() - started
            while line and not decode_message(line).get("done", True):
                line = await reader.readline()
            return 1000.0 * elapsed
        finally:
            writer.close()
            await writer.wait_closed()

    return asyncio.run(exchange())


def _served_metrics(m: Dict[str, float], ops: _ServedOps) -> None:
    hits = misses = rejects = 0
    for before, after in ops.stats_around:
        hits += after["plan_cache"]["plan_hits"] - before["plan_cache"]["plan_hits"]
        misses += after["plan_cache"]["plan_misses"] - before["plan_cache"]["plan_misses"]
        rejects += after["admission"]["rejects_capacity"] + after["admission"]["rejects_budget"]
    m["planner.cache_hit_ratio"] = hits / (hits + misses)
    m["admission.rejects"] = rejects
    elapsed = statistics.median(ops.elapsed_s)
    m["server.elapsed_p50_ms"] = 1000.0 * elapsed
    m["client.overhead_ms"] = 1000.0 * (statistics.median(ops.latencies_s) - elapsed)


def _replay_server(rec: SpanRecorder, m: Dict[str, float], workload: Workload, spawns: int, hot_queries: int) -> _ServedOps:
    """Spawn the service *spawns* more times: ready, first query, then
    *hot_queries* plan-cache hits, ping, time to the first page."""
    left_rcd, right_rcd = workload.write_files()
    options = {
        "memory_mb": workload.dataset.memory_mb,
        "include_pairs": workload.stream,
    }
    ready, first, ping, first_page = [], [], [], []
    hot = _ServedOps()
    for _ in range(spawns):
        server = ServerProcess(workload.tmpdir, left_rcd, right_rcd)
        try:
            with rec.timed("server.start_ready") as span:
                server.start()
            ready.append(span["ms"])
            with rec.timed("server.first_query") as span:
                summary, _ = server.join(**options)
            if not summary.get("done"):
                raise RuntimeError(f"first query failed: {summary}")
            first.append(span["ms"])
            before = server.stats()
            for _ in range(hot_queries):
                with rec.timed("server.hot_query") as span:
                    summary, _ = server.join(**options)
                hot.latencies_s.append(span["ms"] / 1000.0)
                hot.elapsed_s.append(summary["elapsed_seconds"] * span["speed"])
            hot.stats_around.append((before, server.stats()))
            for _ in range(REPS):
                with rec.timed("server.ping") as span:
                    server.ping()
                ping.append(span["ms"])
            with rec.timed("client.first_page") as span:
                until_first = _first_message_ms(
                    server.socket_path, {"op": "join", "left": "L", "right": "R", **options}
                )
            first_page.append(until_first * span["speed"])
            pids = server.tree()
        finally:
            server.stop()
        leaked = procs.leaked_segments(pids)
        if leaked:
            raise RuntimeError(f"shared-memory segments left behind: {leaked}")
    m["server.start_ready_ms"] = statistics.median(ready)
    m["server.first_query_ms"] = statistics.median(first)
    m["server.ping_ms"] = statistics.median(ping)
    m["client.first_page_ms"] = statistics.median(first_page)
    return hot


def _stop_resource_tracker() -> None:
    """End the helper process ``multiprocessing`` started for this process's
    shared-memory segments.  Left alone it lives until the interpreter
    exits, and the benchmark could not wait for it.  ``multiprocessing``
    has no public call for this; a release that renames the private one
    fails loudly here."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def _replay_engine(rec: SpanRecorder, m: Dict[str, float], workload: Workload, paths: Tuple[Path, Path], left: Any, right: Any) -> Tuple[Any, float, Any, float]:
    """The serve engine in this process: pin, start the pool, plan, execute.
    Returns the plan, the seconds its cold planning took, and the last
    execution's result with the speed it ran at."""
    from repro.kernels import ColumnarRelation, SharedColumnarStore, columnar_arrays
    from repro.serve import DatasetRegistry, EngineHost
    from repro.serve.engine import MAX_WORKERS_ENV

    # ``repro serve --workers N`` lifts the worker cap the same way.
    os.environ.setdefault(MAX_WORKERS_ENV, str(WORKERS))

    stores: List[Any] = []

    def create() -> None:
        for relation in (left, right):
            # Custody moves to ``stores``: closed and unlinked in the finally below.
            stores.append(
                SharedColumnarStore.create(  # repro-lint: disable=RPL004
                    columnar_arrays("D", ColumnarRelation.from_kpes(relation))
                )
            )

    registries: List[Any] = []

    def register() -> None:
        registries.append(DatasetRegistry())
        registries[-1].register_file("L", str(paths[0]))
        registries[-1].register_file("R", str(paths[1]))

    engines: List[Any] = []

    def start() -> None:
        engines.append(EngineHost(workload.memory_bytes, workers=WORKERS))
        engines[-1].start()

    try:
        m["shm.create_ms"], _ = rec.measure("shm.create", create)
        m["shm.pinned_bytes"] = stores[-1].nbytes + stores[-2].nbytes
        m["registry.register_file_ms"], _ = rec.measure("registry.register_file", register)
        m["engine.start_ms"], _ = rec.measure("engine.start", start)
        registry, engine = registries[-1], engines[-1]
        datasets = (registry.get("L"), registry.get("R"))
        with rec.timed("engine.plan.cold") as span:
            # Read now: a cache hit hands back this same object, re-stamped.
            cold_planning_s = engine.plan(*datasets).planning_seconds
        cold_planning_s *= span["speed"]
        m["engine.plan_hit_ms"], plan = rec.measure("engine.plan.hit", lambda: engine.plan(*datasets))
        if not plan.from_cache:
            raise RuntimeError("a repeated engine.plan re-planned")
        m["engine.execute_ms"], result = rec.measure(
            "engine.execute", lambda: engine.execute(plan, *datasets)
        )
        speed = rec.spans[-1]["speed"]
    finally:
        for engine in engines:
            engine.shutdown()
        for registry in registries:
            registry.close()
        for store in stores:
            store.close()
            store.unlink()
        _stop_resource_tracker()
    stats = result.stats
    m["parallel.makespan_ms"] = 1000.0 * stats.join_makespan_seconds * speed
    m["parallel.busy_ms"] = 1000.0 * stats.join_busy_seconds * speed
    m["parallel.worker_utilization"] = stats.worker_utilization
    m["parallel.tasks_stolen"] = stats.tasks_stolen
    m["parallel.ipc_bytes"] = stats.ipc_bytes_shipped
    return plan, cold_planning_s, result, speed


def _replay_protocol(rec: SpanRecorder, m: Dict[str, float], pairs: list) -> None:
    from repro.serve import result_checksum
    from repro.serve.protocol import DEFAULT_PAGE_SIZE, decode_message, encode_message, paginate

    m["result.consume_ms"], _ = rec.measure("result.consume", lambda: [(l, r) for l, r in pairs])
    m["protocol.checksum_ms"], _ = rec.measure("protocol.result_checksum", lambda: result_checksum(pairs))

    def encode() -> List[bytes]:
        return [
            encode_message({"ok": True, "query_id": 1, "page": index, "pairs": page})
            for index, page in enumerate(paginate(pairs, DEFAULT_PAGE_SIZE))
        ]

    m["protocol.paginate_encode_ms"], lines = rec.measure("protocol.paginate_encode", encode)
    m["protocol.bytes_per_pair"] = sum(len(line) for line in lines) / len(pairs)

    def decode() -> list:
        received: list = []
        for line in lines:
            received.extend((int(a), int(b)) for a, b in decode_message(line)["pairs"])
        return received

    m["protocol.decode_ms"], _ = rec.measure("protocol.decode", decode)


def _replay_admission(rec: SpanRecorder, m: Dict[str, float]) -> None:
    from repro.serve import AdmissionController

    batch = 200

    async def slots() -> None:
        admission = AdmissionController()
        for _ in range(batch):
            async with admission.slot():
                pass

    ms, _ = rec.measure("admission.slot", lambda: asyncio.run(slots()))
    m["admission.slot_ms"] = ms / batch


# ----------------------------------------------------------------------
# the whole replay
# ----------------------------------------------------------------------
def _replay_layers(rec: SpanRecorder, m: Dict[str, float], workload: Workload, seen: _BlockObserver) -> List[str]:
    """Every layer on the workload's dataset; returns the metrics that lie
    on the blocking path of the workload's op."""
    from repro.kernels import ColumnarRelation

    served = isinstance(workload, Serve)
    plans = isinstance(workload, LibMappedAuto)  # the op itself plans, cold
    m["datasets.generate_ms"], _ = rec.measure("datasets.generate", workload.generate)
    left, right = _replay_files(rec, m, workload)
    try:
        plan = _replay_planner(rec, m, left, right, workload.memory_bytes, WORKERS if served else 1)
        paths = (workload.tmpdir / "L.rcd", workload.tmpdir / "R.rcd")
        engine_plan, engine_planning_s, result, speed = _replay_engine(rec, m, workload, paths, left, right)
        # A served join runs in the server; the in-process engine ran the same
        # plan on the same pins, and its account stands in.  Planning time is
        # the op's own when it plans, else that of the engine's cold plan.
        _own_join(
            m,
            [(result.stats, speed)] if served else seen.stats,
            None if plans else engine_planning_s,
        )
        if plans:
            estimate_s = plan.chosen.estimate.total_seconds
            executed_s = statistics.median(
                (s.total_wall_seconds - s.planning_seconds) * speed for s, speed in seen.stats
            )
        else:
            estimate_s = engine_plan.chosen.estimate.total_seconds
            executed_s = m["engine.execute_ms"] / 1000.0
        m["planner.est_over_wall"] = estimate_s / executed_s

        grid = _grid(left, right, max(1, int(m["partitioner.n_partitions"])))
        # lib_default partitions its lists; every other op reads the mapped facade.
        inputs = (left, right) if served or plans else (workload.left, workload.right)
        _replay_partitioner(rec, m, *inputs, grid, "ids" if served else "records")
        partitions = [
            (lf.read_all(), rf.read_all()) for lf, rf in zip(*_partition(*inputs, grid, "records"))
        ]
        _replay_tuple_engine(rec, m, partitions, grid)
        # The sequential columnar driver turns every partition's records back into columns.
        m["columnar.from_kpes_list_ms"], _ = rec.measure(
            "columnar.from_kpes_list",
            lambda: [ColumnarRelation.from_kpes(records) for pair in partitions for records in pair],
        )
        _replay_kernels(rec, m, left, right, grid)
    finally:
        left.store.close()
        right.store.close()
    _replay_protocol(rec, m, result.pairs)
    _replay_admission(rec, m)
    hot = _replay_server(
        rec, m, workload, spawns=SPAWNS if served else 1, hot_queries=0 if served else 1
    )
    _served_metrics(m, seen.served if served else hot)

    # The op's blocking path, replayed layers only, and the leaves of its
    # join phase.  Join-phase wall the leaves do not explain — dispatch and
    # merge around the workers, or, in the sequential driver, repartitioned
    # oversize pairs, which take a per-pair scalar path no public function
    # exposes on its own — is reported by subtraction and is *not* part of
    # the path: a number nobody measured cannot vouch for the coverage.
    if served:
        leaves = ["parallel.makespan_ms"]
        path = ["engine.plan_hit_ms", "engine.execute_ms", "protocol.checksum_ms", "server.ping_ms"]
        if workload.stream:
            # The server encodes page i+1 while the client decodes page i, so
            # only the slower side of the stream is on the blocking path.
            path.append(max("protocol.paginate_encode_ms", "protocol.decode_ms", key=m.__getitem__))
    elif plans:
        dedup = f"{plan.chosen.kwargs.get('dedup')}.join_ids_ms"
        leaves = ["columnar.from_kpes_list_ms"] + [dedup] * (dedup in m)
        path = ["mmapstore.open_ms", "planner.plan_cold_ms", "partitioner.partition_tuple_ms", *leaves, "result.consume_ms"]
    else:
        leaves = ["internal.sweep_list_ms", "refpoint.rpm_scalar_ms"]
        path = ["partitioner.partition_tuple_ms", *leaves, "result.consume_ms"]
    m["pbsm.join_unattributed_ms"] = m["pbsm.phase_join_ms"] - sum(m[leaf] for leaf in leaves)
    return path


# ----------------------------------------------------------------------
def run_traced(name: str, seed: int, *, smoke: bool = False) -> Tuple[harness.RunResult, Dict[str, float], SpanRecorder]:
    """One traced run of *name*: the block, the replay, every per-layer metric."""
    metrics: Dict[str, float] = {}
    with harness.run_tmpdir() as tmpdir, SpeedSensors() as sensors:
        recorder = SpanRecorder(name, sensors)
        workload, expected = harness.prepare(name, seed, tmpdir, smoke)
        seen = _BlockObserver(recorder)
        block = harness.run_block(
            workload, expected, harness.fixed_ops(TRACED_OPS), sensors, seen, recorder.span
        )
        run = harness.RunResult([block])
        if not seen.spanned_s or not seen.plain_s:
            raise RuntimeError(f"the traced block's ops failed: {run.failures}")
        try:
            with recorder.span("replay"):
                path = _replay_layers(recorder, metrics, workload, seen)
        finally:
            workload.teardown()
        leaked = procs.leaked_segments(workload.pids())
        if leaked:
            raise RuntimeError(f"shared-memory segments left behind: {leaked}")
    strays = procs.children_of(os.getpid())
    if strays:
        raise RuntimeError(f"child processes left behind: {strays}")
    latencies = seen.spanned_s + seen.plain_s
    p50_ms = 1000.0 * statistics.median(latencies)
    metrics["proc.cpu_s_per_op"] = seen.cpu_s / len(latencies)
    metrics["e2e.lat_p50_ms"] = p50_ms
    metrics["e2e.lat_p90_ms"] = 1000.0 * harness.percentile(latencies, 90)
    metrics["trace.overhead_ratio"] = statistics.median(seen.spanned_s) / statistics.median(seen.plain_s)
    metrics["trace.path_coverage"] = sum(metrics[layer] for layer in path) / p50_ms
    if not 0.75 <= metrics["trace.path_coverage"] <= 1.25:
        print(
            f"{name}: the replayed layers on the op's path add up to "
            f"{metrics['trace.path_coverage']:.2f} of the median op; the rest is work "
            "no replay covers (README, 'Unmeasured layers')",
            file=sys.stderr,
        )
    missing = [metric.name for metric in PER_LAYER if metric.name not in metrics]
    if missing:
        raise RuntimeError(f"layers without a number: {missing}")
    return run, metrics, recorder
