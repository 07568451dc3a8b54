"""The always-on join server behind ``repro serve``.

An asyncio TCP (or unix-socket) server speaking the line-delimited JSON
protocol of :mod:`repro.serve.protocol`.  The event loop only shuffles
bytes and bookkeeping; every blocking engine call — planning, joining,
dataset loading, even result checksumming — is shipped to a worker
thread through :func:`~repro.serve.executor.run_blocking` (lint rule
RPL007), so a running 100k x 100k join never stalls another client's
``metrics`` scrape.

Request lifecycle of a ``join`` op::

    admission slot (reject on capacity)        AdmissionController
      -> plan through the shared cache        EngineHost.plan
      -> budget check on the cost estimate    AdmissionController
      -> execute (persistent pool, pins)      EngineHost.execute
      -> checksum the result's pairs          protocol.result_checksum
      -> stream result pages + summary        protocol.encode_pages

Plan to checksum is one blocking call (``JoinServer._answer``), so a
query's engine work stays on one worker thread.

A row-backed result (PBSM under RPM, every worker count) is held once,
as the row positions ``result.pairs`` keeps
(:class:`~repro.core.result.PairRows`; for a parallel plan the one
buffer pair the workers' result segments were copied into), and never
decoded into tuples: the checksum and the pages gather its oids from the
inputs' oid columns a chunk or a page at a time (``protocol`` decides
what a page looks like).  A list-backed result goes as the two oid
buffers ``JoinResult.to_arrays()`` unboxes.

Every request gets its own :class:`~repro.obs.Tracer`; the finished span
tree is retained for the last :data:`TRACE_KEEP` queries and served back
by the ``trace`` op — which is how the load harness *sees* that a
repeated query re-profiled nothing (no ``profile`` span, ``plan`` span
tagged ``from_cache``).

Shutdown discipline: SIGTERM/SIGINT request a stop; the listener closes,
in-flight queries drain, the worker pool is torn down, the registry
unlinks its pinned segments, and a final orphan sweep reaps anything a
crashed predecessor left in ``/dev/shm``.  The same sweep runs at
startup, so a SIGKILLed server never leaks segments past the next start.
"""

from __future__ import annotations

import asyncio
import logging
import os
import resource
import signal
import sys
import time
from collections import OrderedDict
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.result import PairRows
from repro.io.costmodel import mb
from repro.kernels.columnar import ColumnarRelation, invalid_row
from repro.kernels.shm import shm_enabled, sweep_orphan_segments
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import KIND_SECTION, Tracer
from repro.serve.admission import AdmissionController, AdmissionReject
from repro.serve.engine import EngineHost
from repro.serve.executor import run_blocking
from repro.serve.protocol import (
    DEFAULT_PAGE_SIZE,
    MAX_LINE_BYTES,
    OidPairs,
    ProtocolError,
    decode_message,
    encode_message,
    encode_pages,
    error_response,
    is_integer,
    join_options,
    result_checksum,
)
from repro.serve.registry import Dataset, DatasetRegistry

#: Finished query traces retained for the ``trace`` op.
TRACE_KEEP = 64

_LOG = logging.getLogger(__name__)


def _register_problem(message: dict) -> Optional[str]:
    """Why *message* is not a well-formed ``register`` request, or ``None``."""
    name = message.get("name")
    if not isinstance(name, str) or not name:
        return "register needs a 'name'"
    for key in ("n", "seed", "start_oid"):
        if key in message and not is_integer(message[key]):
            return f"register's {key!r} must be an integer, got {message[key]!r}"
    records = message.get("records", [])
    if not isinstance(records, list) or not all(isinstance(row, list) for row in records):
        return "register's 'records' must be a list of [oid, xl, yl, xh, yh] lists"
    return None


def _records_problem(records: List[List[Any]]) -> Optional[str]:
    """Why inline *records* are not a relation, or ``None``: each row is
    ``[oid, xl, yl, xh, yh]`` with an int64 oid, and every MBR keeps
    the loaders' file rule (finite, ``xl <= xh``, ``yl <= yh``)."""
    for index, row in enumerate(records):
        if len(row) != 5:
            return f"register's record {index} has {len(row)} entries, not [oid, xl, yl, xh, yh]"
        if not is_integer(row[0]) or not -(2**63) <= row[0] < 2**63:
            return f"register's record {index} has oid {row[0]!r}, not a 64-bit integer"
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in row[1:]):
            return f"register's record {index} has a coordinate that is not a number: {row!r}"
    if not records:
        return None
    try:
        coords = np.array([row[1:] for row in records], dtype=np.float64)
    except OverflowError:
        return "register's 'records' hold a coordinate beyond the float64 range"
    index = invalid_row(ColumnarRelation(None, *coords.T), finite=True)
    if index is not None:
        return (
            f"register's record {index} is not a finite MBR with xl <= xh "
            f"and yl <= yh: {records[index]!r}"
        )
    return None


def _peak_rss_bytes() -> int:
    """This process's peak resident set size in bytes (``ru_maxrss`` is
    KiB on Linux, bytes on macOS); its pool workers are not counted."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


class JoinServer:
    """One server process: registry + engine host + admission + metrics."""

    def __init__(
        self,
        registry: DatasetRegistry,
        engine: EngineHost,
        admission: Optional[AdmissionController] = None,
        metrics: Optional[MetricsRegistry] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_socket: Optional[str] = None,
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> None:
        self.registry = registry
        self.engine = engine
        self.admission = admission if admission is not None else AdmissionController()
        self.admission.on_change = self._admission_changed
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.host = host
        self.port = port
        self.unix_socket = unix_socket
        self.page_size = page_size
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Event] = None
        self._started_at = 0.0
        self._query_seq = 0
        self._traces: "OrderedDict[int, list]" = OrderedDict()
        self._declare_metrics()
        self._ops: Dict[str, Callable[[dict, asyncio.StreamWriter], Awaitable[None]]] = {
            "ping": self._op_ping,
            "register": self._op_register,
            "datasets": self._op_datasets,
            "join": self._op_join,
            "metrics": self._op_metrics,
            "stats": self._op_stats,
            "trace": self._op_trace,
            "shutdown": self._op_shutdown,
        }

    # ------------------------------------------------------------------
    # metrics plumbing
    # ------------------------------------------------------------------
    def _declare_metrics(self) -> None:
        m = self.metrics
        m.counter("repro_serve_queries_total", "Join queries by outcome status")
        m.counter(
            "repro_serve_admission_rejects_total",
            "Queries refused by admission control, by reason",
        )
        m.gauge("repro_serve_queue_depth", "Queries waiting for an execution slot")
        m.gauge("repro_serve_inflight", "Queries currently executing")
        m.gauge("repro_serve_datasets", "Registered datasets")
        m.gauge(
            "repro_serve_pinned_shm_bytes",
            "Bytes of the registered datasets' pinned shared-memory segments",
        )
        m.gauge(
            "repro_serve_peak_rss_bytes",
            "Peak resident set size of the server process itself (ru_maxrss)",
        )
        m.gauge(
            "repro_serve_plan_cache",
            "Shared planner-cache state, by stat name",
        )
        m.histogram(
            "repro_serve_query_seconds",
            "End-to-end join latency as observed by the server",
        )
        self._admission_changed(self.admission)

    def _admission_changed(self, admission: AdmissionController) -> None:
        self.metrics.set("repro_serve_queue_depth", float(admission.queue_depth))
        self.metrics.set("repro_serve_inflight", float(admission.inflight))

    def _refresh_gauges(self) -> None:
        self.metrics.set("repro_serve_datasets", float(len(self.registry.names())))
        self.metrics.set(
            "repro_serve_pinned_shm_bytes", float(self.registry.pinned_bytes())
        )
        self.metrics.set("repro_serve_peak_rss_bytes", float(_peak_rss_bytes()))
        for stat, value in self.engine.cache.stats().items():
            self.metrics.set("repro_serve_plan_cache", float(value), stat=stat)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Sweep orphans, start the engine pool, open the listener."""
        swept = sweep_orphan_segments()
        if swept:
            self.metrics.counter(
                "repro_serve_orphans_swept_total",
                "Stale shared-memory segments reaped at startup",
            )
            self.metrics.inc("repro_serve_orphans_swept_total", len(swept))
        await run_blocking(self.engine.start)
        self._stopped = asyncio.Event()
        if self.unix_socket is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=self.unix_socket, limit=MAX_LINE_BYTES
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_client, self.host, self.port, limit=MAX_LINE_BYTES
            )
            self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to a graceful stop (POSIX loops only)."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_stop)
            except (NotImplementedError, RuntimeError):
                break  # non-POSIX loop; rely on KeyboardInterrupt instead

    def request_stop(self) -> None:
        """Ask the serve loop to exit (safe from signal handlers)."""
        if self._stopped is not None:
            self._stopped.set()

    async def serve_until_stopped(self) -> None:
        """Serve until :meth:`request_stop`, then drain and shut down."""
        assert self._stopped is not None, "call start() first"
        await self._stopped.wait()
        await self.stop()

    async def stop(self) -> None:
        """Close the listener, drain, and release every pinned resource."""
        server = self._server
        self._server = None
        if server is not None:
            server.close()
            await server.wait_closed()
        await run_blocking(self.engine.shutdown)
        await run_blocking(self.registry.close)
        self._refresh_gauges()
        # Anything this pid still owns at this point (a query killed
        # mid-fan-out, for instance) is garbage by definition.
        await run_blocking(sweep_orphan_segments, True)
        if self.unix_socket is not None and os.path.exists(self.unix_socket):
            os.unlink(self.unix_socket)
        if self._stopped is not None:
            self._stopped.set()

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(
                        writer,
                        error_response("protocol", "request line too long"),
                    )
                    break
                if not line:
                    break
                try:
                    message = decode_message(line)
                except ProtocolError as exc:
                    await self._send(writer, error_response("protocol", str(exc)))
                    continue
                op = message.get("op")
                handler = self._ops.get(op) if isinstance(op, str) else None
                if handler is None:
                    await self._send(
                        writer,
                        error_response(
                            "unknown_op",
                            f"unknown op {op!r}; choose from {sorted(self._ops)}",
                        ),
                    )
                    continue
                await handler(message, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-conversation; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass  # already torn down on the client side

    async def _send(self, writer: asyncio.StreamWriter, message: dict) -> None:
        writer.write(encode_message(message))
        await writer.drain()

    # ------------------------------------------------------------------
    # simple ops
    # ------------------------------------------------------------------
    async def _op_ping(self, message: dict, writer: asyncio.StreamWriter) -> None:
        await self._send(
            writer,
            {
                "ok": True,
                "pid": os.getpid(),
                "uptime_seconds": time.monotonic() - self._started_at,
                "workers": self.engine.workers,
                "shm": shm_enabled(),
            },
        )

    async def _op_register(self, message: dict, writer: asyncio.StreamWriter) -> None:
        problem = _register_problem(message)
        if problem is not None:
            await self._send(writer, error_response("bad_request", problem))
            return
        name = message["name"]
        try:
            if "path" in message:
                entry = await run_blocking(
                    self.registry.register_file, name, str(message["path"])
                )
            elif "pattern" in message:
                entry = await run_blocking(
                    self.registry.register_synthetic,
                    name,
                    str(message["pattern"]),
                    message.get("n", 10_000),
                    seed=message.get("seed", 1),
                    start_oid=message.get("start_oid", 0),
                )
            elif "records" in message:
                # Per row, so off the event loop like the registration.
                problem = await run_blocking(_records_problem, message["records"])
                if problem is not None:
                    await self._send(writer, error_response("bad_request", problem))
                    return
                records = [tuple(row) for row in message["records"]]
                entry = await run_blocking(self.registry.register, name, records)
            else:
                await self._send(
                    writer,
                    error_response(
                        "bad_request",
                        "register needs 'path', 'pattern', or 'records'",
                    ),
                )
                return
        except (ValueError, OSError) as exc:
            await self._send(writer, error_response("register_failed", str(exc)))
            return
        self._refresh_gauges()
        await self._send(writer, {"ok": True, "dataset": entry.describe()})

    async def _op_datasets(self, message: dict, writer: asyncio.StreamWriter) -> None:
        await self._send(
            writer, {"ok": True, "datasets": self.registry.describe()}
        )

    async def _op_metrics(self, message: dict, writer: asyncio.StreamWriter) -> None:
        self._refresh_gauges()
        await self._send(writer, {"ok": True, "text": self.metrics.render()})

    async def _op_stats(self, message: dict, writer: asyncio.StreamWriter) -> None:
        admission = self.admission
        await self._send(
            writer,
            {
                "ok": True,
                "uptime_seconds": time.monotonic() - self._started_at,
                "queries": {
                    status: int(self.metrics.get("repro_serve_queries_total", status=status))
                    for status in ("ok", "rejected", "error")
                },
                "admission": {
                    "inflight": admission.inflight,
                    "queue_depth": admission.queue_depth,
                    "max_inflight": admission.max_inflight,
                    "max_queue": admission.max_queue,
                    "budget_seconds": admission.budget_seconds,
                    **{
                        f"rejects_{reason}": int(
                            self.metrics.get(
                                "repro_serve_admission_rejects_total", reason=reason
                            )
                        )
                        for reason in ("capacity", "budget")
                    },
                },
                "plan_cache": self.engine.cache.stats(),
                "datasets": self.registry.names(),
                "latency": {
                    "p50_seconds": self.metrics.quantile(
                        "repro_serve_query_seconds", 0.50
                    ),
                    "p99_seconds": self.metrics.quantile(
                        "repro_serve_query_seconds", 0.99
                    ),
                    "count": self.metrics.histogram_count(
                        "repro_serve_query_seconds"
                    ),
                },
            },
        )

    async def _op_trace(self, message: dict, writer: asyncio.StreamWriter) -> None:
        query_id = message.get("query_id")
        if not is_integer(query_id):
            await self._send(
                writer,
                error_response("bad_request", f"trace needs an integer 'query_id', got {query_id!r}"),
            )
            return
        spans = self._traces.get(query_id)
        if spans is None:
            await self._send(
                writer,
                error_response(
                    "unknown_query",
                    f"no retained trace for query_id {query_id!r} "
                    f"(last {TRACE_KEEP} queries are kept)",
                ),
            )
            return
        await self._send(writer, {"ok": True, "query_id": query_id, "spans": spans})

    async def _op_shutdown(self, message: dict, writer: asyncio.StreamWriter) -> None:
        await self._send(writer, {"ok": True, "stopping": True})
        self.request_stop()

    # ------------------------------------------------------------------
    # the join op
    # ------------------------------------------------------------------
    async def _join_error(
        self,
        writer: asyncio.StreamWriter,
        query_id: int,
        error: str,
        message: str,
        **extra: Any,
    ) -> None:
        """Count a join that ends in an error response, and send it."""
        self.metrics.inc("repro_serve_queries_total", 1, status="error")
        await self._send(
            writer, error_response(error, message, query_id=query_id, **extra)
        )

    def _answer(
        self, left: Dataset, right: Dataset, memory_bytes: int, tracer: Tracer
    ) -> Tuple[Any, Any, Any, str]:
        """Plan, budget-check, execute and checksum one join (blocking).

        One ``run_blocking`` call per query on purpose.  A pool thread
        counts as idle only after its future's callbacks have run, so a
        hop submitted from the previous hop's completion often finds no
        idle thread and starts another; each extra thread is one more
        malloc arena keeping result-sized buffers — 5 to 16 MB of peak
        RSS that differ from one server start to the next.
        """
        plan = self.engine.plan(left, right, memory_bytes, tracer)
        self.admission.check_budget(plan.chosen.estimate.total_seconds)
        result = self.engine.execute(plan, left, right, tracer)
        # A row-backed result goes to the socket as its row positions,
        # held once: the checksum and the pages gather its oids a chunk
        # at a time.  A list-backed one goes as its two oid buffers.
        pairs = result.pairs
        rows: OidPairs = pairs if isinstance(pairs, PairRows) else result.to_arrays()
        with tracer.span("checksum", kind=KIND_SECTION):
            checksum = result_checksum(rows)
        return plan, result.stats, rows, checksum

    async def _op_join(self, message: dict, writer: asyncio.StreamWriter) -> None:
        self._query_seq += 1
        query_id = self._query_seq
        started = time.perf_counter()
        try:
            left = self.registry.get(str(message.get("left")))
            right = self.registry.get(str(message.get("right")))
        except KeyError as exc:
            await self._join_error(writer, query_id, "unknown_dataset", str(exc))
            return
        try:
            memory_mb, include_pairs, page_size, pairs_format = join_options(
                message, self.page_size
            )
        except ProtocolError as exc:
            await self._join_error(writer, query_id, "bad_request", str(exc))
            return
        memory_bytes = (
            mb(memory_mb) if memory_mb is not None else self.engine.memory_bytes
        )
        tracer = Tracer()

        try:
            async with self.admission.slot():
                plan, stats, rows, checksum = await run_blocking(
                    self._answer, left, right, memory_bytes, tracer
                )
        except AdmissionReject as exc:
            self.metrics.inc("repro_serve_queries_total", 1, status="rejected")
            self.metrics.inc(
                "repro_serve_admission_rejects_total", 1, reason=exc.reason
            )
            await self._send(
                writer,
                error_response(
                    "rejected", str(exc), reason=exc.reason, query_id=query_id
                ),
            )
            return
        except Exception as exc:
            # The engine failed this query (bad data behind a registered
            # name, a dead pool worker, a bug); the connection and the
            # server must outlive it.
            _LOG.exception("join %d (%s x %s) failed", query_id, left.name, right.name)
            await self._join_error(
                writer,
                query_id,
                "join_failed",
                f"{type(exc).__name__}: {exc}",
                exception=type(exc).__name__,
            )
            return

        if include_pairs:
            for frame in encode_pages(rows, page_size, pairs_format, query_id):
                for buffer in frame:
                    writer.write(buffer)
                await writer.drain()

        elapsed = time.perf_counter() - started
        self._traces[query_id] = [span.to_dict() for span in tracer.spans]
        while len(self._traces) > TRACE_KEEP:
            self._traces.popitem(last=False)
        self.metrics.inc("repro_serve_queries_total", 1, status="ok")
        self.metrics.observe("repro_serve_query_seconds", elapsed)
        self.metrics.observe_join(stats)
        profiled = sum(1 for span in tracer.spans if span.name == "profile")
        await self._send(
            writer,
            {
                "ok": True,
                "done": True,
                "query_id": query_id,
                "n_results": stats.n_results,
                "checksum": checksum,
                "elapsed_seconds": elapsed,
                "planning_seconds": plan.planning_seconds,
                "from_cache": plan.from_cache,
                "profile_spans": profiled,
                "chosen": plan.chosen.describe(),
                "algorithm": stats.algorithm,
                "duplicates_suppressed": stats.duplicates_suppressed,
            },
        )


__all__ = ["JoinServer", "TRACE_KEEP"]
