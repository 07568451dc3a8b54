"""Closed-loop load harness for the join service (``repro load``).

Sweeps a (topology x scale x concurrency) matrix against a *running*
``repro serve`` and closes the loop on correctness, not just throughput:

* datasets are registered server-side by **pattern + seed** (the
  generators are deterministic), and the harness generates the same
  records locally, runs the *sequential* engine once per cell, and
  compares the server's result checksum against that ground truth —
  byte-identical sorted result sets or the cell fails;
* after the warm-up query, every repetition of a distinct query must be
  served from the shared plan cache (``from_cache`` true, zero
  ``profile`` spans in its trace) — a violation is recorded, because a
  service that silently re-plans hot queries has lost its whole
  amortisation story;
* capacity rejections are retried with backoff (and counted), so the
  measured latencies cover completed queries only while the rejects
  still show up in the report.

The report — client-side p50/p99 per cell, server-side p50/p99 and
throughput from the ``MetricsRegistry`` histogram, plan-cache counters —
is written as ``BENCH_serve.json``.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.io.costmodel import mb
from repro.serve.client import ServeClient
from repro.serve.executor import run_blocking
from repro.serve.protocol import result_checksum

#: Retries per query on a capacity rejection before giving up.
REJECT_RETRIES = 200
REJECT_BACKOFF_SECONDS = 0.05

DEFAULT_TOPOLOGIES = ("uniform", "clustered")
DEFAULT_SCALES = (2_000,)
DEFAULT_CONCURRENCY = (1, 4)


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values)) - 1))
    return sorted_values[rank]


def _dataset_names(topology: str, n: int) -> Tuple[str, str]:
    return (f"load_{topology}_{n}_L", f"load_{topology}_{n}_R")


def _local_expected_checksum(topology: str, n: int, memory_mb: float) -> str:
    """Sequential-engine ground truth for one cell's query."""
    from repro import spatial_join
    from repro.datasets import PATTERNS

    generator = PATTERNS[topology]
    left = generator(n, seed=11, start_oid=0)
    right = generator(n, seed=23, start_oid=10_000_000)
    result = spatial_join(left, right, mb(memory_mb), method="pbsm")
    return result_checksum(result.pairs)


async def _register_cell(
    client: ServeClient, topology: str, n: int
) -> None:
    left_name, right_name = _dataset_names(topology, n)
    for name, seed, start_oid in (
        (left_name, 11, 0),
        (right_name, 23, 10_000_000),
    ):
        response = await client.register(
            name, pattern=topology, n=n, seed=seed, start_oid=start_oid
        )
        if not response.get("ok"):
            raise RuntimeError(f"register {name} failed: {response}")


async def _one_query(
    client: ServeClient, left: str, right: str, memory_mb: float
) -> Tuple[Dict[str, Any], float, int]:
    """One join with capacity-reject retry; returns (summary, latency, rejects)."""
    rejects = 0
    for _ in range(REJECT_RETRIES):
        started = time.perf_counter()
        summary, _ = await client.join(left, right, memory_mb=memory_mb)
        latency = time.perf_counter() - started
        if summary.get("ok"):
            return summary, latency, rejects
        if summary.get("error") == "rejected" and summary.get("reason") == "capacity":
            rejects += 1
            await asyncio.sleep(REJECT_BACKOFF_SECONDS)
            continue
        raise RuntimeError(f"join {left}x{right} failed: {summary}")
    raise RuntimeError(
        f"join {left}x{right} rejected {rejects} times; server saturated"
    )


async def _worker(
    connect: Any,
    left: str,
    right: str,
    memory_mb: float,
    repeats: int,
    sink: List[Dict[str, Any]],
) -> None:
    client = await connect()
    try:
        for _ in range(repeats):
            summary, latency, rejects = await _one_query(
                client, left, right, memory_mb
            )
            sink.append(
                {"summary": summary, "latency": latency, "rejects": rejects}
            )
    finally:
        await client.close()


async def _run_matrix(
    connect: Any,
    topologies: Sequence[str],
    scales: Sequence[int],
    concurrency_levels: Sequence[int],
    repeats: int,
    memory_mb: float,
) -> Dict[str, Any]:
    control = await connect()
    try:
        ping = await control.ping()
        cells: List[Dict[str, Any]] = []
        for topology in topologies:
            for n in scales:
                left_name, right_name = _dataset_names(topology, n)
                await _register_cell(control, topology, n)
                expected = await run_blocking(
                    _local_expected_checksum, topology, n, memory_mb
                )
                # Warm-up: the one query allowed to plan from scratch.
                warm, _, _ = await _one_query(
                    control, left_name, right_name, memory_mb
                )
                if warm["checksum"] != expected:
                    raise RuntimeError(
                        f"{topology} x {n}: warm-up checksum mismatch "
                        f"(server {warm['checksum']}, sequential {expected})"
                    )
                for concurrency in concurrency_levels:
                    sink: List[Dict[str, Any]] = []
                    wall_started = time.perf_counter()
                    await asyncio.gather(
                        *(
                            _worker(
                                connect,
                                left_name,
                                right_name,
                                memory_mb,
                                repeats,
                                sink,
                            )
                            for _ in range(concurrency)
                        )
                    )
                    wall = time.perf_counter() - wall_started
                    latencies = sorted(row["latency"] for row in sink)
                    checksum_failures = sum(
                        1
                        for row in sink
                        if row["summary"]["checksum"] != expected
                    )
                    cache_violations = sum(
                        1
                        for row in sink
                        if not row["summary"]["from_cache"]
                        or row["summary"]["profile_spans"]
                    )
                    cells.append(
                        {
                            "topology": topology,
                            "n": n,
                            "concurrency": concurrency,
                            "repeats": repeats,
                            "queries": len(sink),
                            "wall_seconds": wall,
                            "throughput_qps": len(sink) / wall if wall else 0.0,
                            "p50_seconds": _percentile(latencies, 0.50),
                            "p99_seconds": _percentile(latencies, 0.99),
                            "checksum_ok": checksum_failures == 0,
                            "checksum_failures": checksum_failures,
                            "expected_checksum": expected,
                            "plan_cache_violations": cache_violations,
                            "capacity_rejects_retried": sum(
                                row["rejects"] for row in sink
                            ),
                        }
                    )
        stats = await control.stats()
        metrics_text = await control.metrics_text()
        return {
            "kind": "serve_load",
            "generated_unix": time.time(),
            "server": ping,
            "memory_mb": memory_mb,
            "cells": cells,
            "server_latency": stats.get("latency", {}),
            "plan_cache": stats.get("plan_cache", {}),
            "admission": stats.get("admission", {}),
            "metrics_text": metrics_text,
        }
    finally:
        await control.close()


def run_load(
    host: str = "127.0.0.1",
    port: int = 0,
    unix_socket: Optional[str] = None,
    *,
    topologies: Sequence[str] = DEFAULT_TOPOLOGIES,
    scales: Sequence[int] = DEFAULT_SCALES,
    concurrency_levels: Sequence[int] = DEFAULT_CONCURRENCY,
    repeats: int = 3,
    memory_mb: float = 2.5,
    out: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the sweep against a running server; optionally write the report."""

    def connect() -> Any:
        return ServeClient.connect(host, port, unix_socket)

    report = asyncio.run(
        _run_matrix(
            connect,
            topologies,
            scales,
            concurrency_levels,
            repeats,
            memory_mb,
        )
    )
    report["ok"] = all(
        cell["checksum_ok"] and not cell["plan_cache_violations"]
        for cell in report["cells"]
    )
    if out is not None:
        with open(out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return report


__all__ = ["run_load"]
