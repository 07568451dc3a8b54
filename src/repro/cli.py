"""Command-line interface: generate datasets and run spatial joins.

Usage examples::

    python -m repro generate --pattern tiger --n 20000 --seed 1 roads.npy
    python -m repro generate --pattern manhattan --n 20000 streets.csv
    python -m repro build roads.rcd --from roads.npy
    python -m repro build streets.rcd --pattern manhattan --n 20000
    python -m repro join roads.rcd streets.rcd --method pbsm \\
        --memory-mb 2.5 --internal sweep_trie --out pairs.csv
    python -m repro join roads.npy streets.csv --method auto
    python -m repro explain roads.rcd streets.rcd --memory-mb 2.5
    python -m repro info roads.npy

``.rcd`` is the memory-mapped columnar dataset format (docs/datasets.md):
``build`` once, then every ``join``/``explain``/``info``/``serve``
open is zero-copy in O(ms) instead of a full parse.

The bench CLI lives separately under ``python -m repro.bench``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path
from typing import Callable, Optional

from repro import SPATIAL_JOIN_METHODS, spatial_join
from repro.core.report import format_stats, stats_to_dict
from repro.datasets import PATTERNS, coverage, summarize
from repro.datasets.fileio import load_relation, save_relation
from repro.io.costmodel import is_memory_mb, mb


def _load(path: str):
    """``load_relation(path)``, or ``None`` after an ``error:`` line on
    stderr when the file cannot be read or parsed."""
    try:
        return load_relation(path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load {path}: {exc}", file=sys.stderr)
        return None


def _memory_mb(text: str) -> float:
    """``--memory-mb`` under the join protocol's rule (:func:`is_memory_mb`):
    a bad value is a usage error (exit 2), not a traceback."""
    value = float(text)  # argparse turns a ValueError into a usage error
    if not is_memory_mb(value):
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0 (at least one byte), got {text!r}"
        )
    return value


def _int_in(low: int, high: Optional[int] = None) -> Callable[[str], int]:
    """An argparse type for an integer in ``low..high`` (no upper bound
    when *high* is ``None``): a bad value is a usage error (exit 2)."""

    def parse(text: str) -> int:
        try:
            value: Optional[int] = int(text)
        except ValueError:
            value = None
        if value is None or value < low or (high is not None and value > high):
            bound = f"in {low}..{high}" if high is not None else f">= {low}"
            raise argparse.ArgumentTypeError(f"must be an integer {bound}, got {text!r}")
        return value

    return parse


def _page_size(text: str) -> int:
    """``--page-size`` under the join protocol's ``page_size`` rule."""
    from repro.serve.protocol import MAX_PAGE_SIZE

    return _int_in(1, MAX_PAGE_SIZE)(text)


def _budget_seconds(text: str) -> float:
    """``--budget-seconds``: finite and >= 0 (NaN would admit every query)."""
    value = float(text)  # argparse turns a ValueError into a usage error
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _cmd_generate(args: argparse.Namespace) -> int:
    generator = PATTERNS[args.pattern]
    kpes = generator(args.n, seed=args.seed, start_oid=args.start_oid)
    save_relation(kpes, args.output)
    print(
        f"wrote {len(kpes):,} MBRs ({args.pattern}, seed {args.seed}, "
        f"coverage {coverage(kpes):.4f}) to {args.output}"
    )
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    import time

    if Path(args.output).suffix.lower() != ".rcd":
        print(
            f"error: build output must be an .rcd file, got {args.output!r}",
            file=sys.stderr,
        )
        return 2
    if (args.source is None) == (args.pattern is None):
        print(
            "error: build wants exactly one input: --from FILE or --pattern NAME",
            file=sys.stderr,
        )
        return 2
    if args.source is not None:
        kpes = _load(args.source)
        if kpes is None:
            return 2
        origin = args.source
    else:
        kpes = PATTERNS[args.pattern](
            args.n, seed=args.seed, start_oid=args.start_oid
        )
        origin = f"{args.pattern} pattern, seed {args.seed}"
    if args.sort:
        kpes = sorted(kpes, key=lambda k: k[1])

    started = time.perf_counter()
    save_relation(kpes, args.output)
    build_seconds = time.perf_counter() - started

    from repro.io.rcd import read_header

    header = read_header(args.output)
    started = time.perf_counter()
    load_relation(args.output)
    reopen_seconds = time.perf_counter() - started
    size_mb = Path(args.output).stat().st_size / 1e6
    print(
        f"built {header.n:,} MBRs from {origin} into {args.output} "
        f"({size_mb:.1f} MB, sorted_by_xl={'yes' if header.sorted_by_xl else 'no'}) "
        f"in {build_seconds:.3f}s"
    )
    print(f"fingerprint: {header.fingerprint}")
    print(f"reopen: {reopen_seconds * 1000:.2f} ms (zero-copy mapped)")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    kpes = _load(args.relation)
    if kpes is None:
        return 2
    summary = summarize(Path(args.relation).name, kpes)
    print(f"relation:  {summary.name}")
    print(f"records:   {summary.n_mbrs:,}")
    print(f"coverage:  {summary.coverage:.4f}")
    print(f"avg width: {summary.avg_width:.6f}")
    print(f"avg height:{summary.avg_height:.6f}")
    if getattr(kpes, "mapped", False):
        print(f"layout:    mapped .rcd, sorted_by_xl={'yes' if kpes.sorted_by_xl else 'no'}")
    return 0


def _load_pair(left_path: str, right_path: str):
    """Load both relations, reusing one load for a self-join; ``None``
    when either cannot be loaded (see :func:`_load`).

    Paths are compared resolved, so ``./a.npy`` vs ``a.npy`` (or a
    symlink) still load the relation once.
    """
    left = _load(left_path)
    if left is None:
        return None
    if Path(right_path).resolve() == Path(left_path).resolve():
        return left, left
    right = _load(right_path)
    return None if right is None else (left, right)


def _cmd_join(args: argparse.Namespace) -> int:
    pair = _load_pair(args.left, args.right)
    if pair is None:
        return 2
    left, right = pair
    kwargs = {}
    if args.internal:
        kwargs["internal"] = args.internal
    if args.dedup:
        kwargs["dedup"] = args.dedup
    if args.method == "auto" and kwargs:
        print(
            "note: --internal/--dedup are ignored with --method auto "
            "(the planner chooses the internal join and runs rpm)",
            file=sys.stderr,
        )
        kwargs = {}
    if args.workers is not None:
        if args.method not in ("pbsm", "auto"):
            parser_error = "--workers requires --method pbsm or auto"
            print(f"error: {parser_error}", file=sys.stderr)
            return 2
        if kwargs.get("dedup") == "sort":
            print(
                "error: --dedup sort cannot run with --workers: the "
                "offline sorting phase would serialise the parallel "
                "join (use --dedup rpm, or drop --workers)",
                file=sys.stderr,
            )
            return 2
        kwargs["workers"] = args.workers
    tracer = None
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer()
    result = spatial_join(
        left, right, mb(args.memory_mb), method=args.method, tracer=tracer, **kwargs
    )
    stats = result.stats
    # format_stats covers the end-to-end timing (``total wall seconds``
    # includes planning) from the stats record itself, so the printed and
    # machine-readable numbers can never diverge.
    print(format_stats(stats, verbose=args.verbose))
    if args.method == "auto":
        print()
        print(result.plan.explain(verbose=args.verbose, result=result))
    if args.trace:
        n_spans = tracer.write(args.trace)
        print(f"wrote {n_spans:,} spans to {args.trace}")
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(stats_to_dict(stats), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote stats report to {args.report}")
    if args.out:
        with open(args.out, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("left_oid", "right_oid"))
            writer.writerows(result.pairs)
        print(f"wrote {len(result):,} pairs to {args.out}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import (
        MetricsRegistry,
        TraceValidationError,
        read_trace,
        summarize_trace,
    )

    try:
        spans = read_trace(args.trace)
    except TraceValidationError as exc:
        print(f"invalid trace: {exc}", file=sys.stderr)
        return 1
    if args.validate_only:
        print(f"{args.trace}: {len(spans)} spans, schema valid")
        return 0
    print(summarize_trace(spans))
    if args.metrics:
        registry = MetricsRegistry()
        registry.observe_trace(spans)
        print()
        print(registry.render(), end="")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import os

    from repro.pbsm.parallel import MAX_WORKERS_ENV
    from repro.serve import (
        AdmissionController,
        DatasetRegistry,
        EngineHost,
        JoinServer,
    )

    if args.workers > 1:
        # An always-on server is allowed to oversubscribe a small box on
        # purpose; honor the explicit worker count unless the operator
        # already set the cap themselves.
        os.environ.setdefault(MAX_WORKERS_ENV, str(args.workers))
    # Load every file before registering (and pinning) any of them, so
    # an unreadable one exits before a segment is created.
    datasets = []
    for spec in args.dataset or ():
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            print(f"error: --dataset wants NAME=PATH, got {spec!r}", file=sys.stderr)
            return 2
        kpes = _load(path)
        if kpes is None:
            return 2
        datasets.append((name, path, kpes))
    registry = DatasetRegistry()
    for name, path, kpes in datasets:
        registry.register(name, kpes, source=f"file:{path}")
        print(f"registered dataset {name!r} from {path}")
    engine = EngineHost(mb(args.memory_mb), workers=args.workers)
    admission = AdmissionController(
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        budget_seconds=args.budget_seconds,
    )
    server = JoinServer(
        registry,
        engine,
        admission,
        host=args.host,
        port=args.port,
        unix_socket=args.unix_socket,
        page_size=args.page_size,
    )

    async def run() -> None:
        await server.start()
        server.install_signal_handlers()
        if server.unix_socket is not None:
            where = server.unix_socket
        else:
            where = "{0}:{1}".format(*server.address)
        print(
            f"repro serve listening on {where} "
            f"(workers={engine.workers}, memory={args.memory_mb}MB, "
            f"inflight<={admission.max_inflight}, queue<={admission.max_queue})",
            flush=True,
        )
        await server.serve_until_stopped()

    asyncio.run(run())
    print("repro serve stopped cleanly")
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    from repro.serve.loadgen import run_load

    report = run_load(
        host=args.host,
        port=args.port,
        unix_socket=args.unix_socket,
        topologies=args.topologies.split(","),
        scales=[int(s) for s in args.scales.split(",")],
        concurrency_levels=[int(c) for c in args.concurrency.split(",")],
        repeats=args.repeats,
        memory_mb=args.memory_mb,
        out=args.out,
    )
    for cell in report["cells"]:
        status = "ok" if cell["checksum_ok"] else "CHECKSUM MISMATCH"
        print(
            f"{cell['topology']:>10} n={cell['n']:<8} c={cell['concurrency']:<3} "
            f"{cell['throughput_qps']:8.2f} q/s  "
            f"p50 {cell['p50_seconds'] * 1000:8.1f} ms  "
            f"p99 {cell['p99_seconds'] * 1000:8.1f} ms  {status}"
        )
    latency = report.get("server_latency") or {}
    if latency:
        print(
            f"server histogram: p50 {latency.get('p50_seconds', 0.0) * 1000:.1f} ms, "
            f"p99 {latency.get('p99_seconds', 0.0) * 1000:.1f} ms over "
            f"{latency.get('count', 0)} queries"
        )
    if args.out:
        print(f"wrote load report to {args.out}")
    if not report["ok"]:
        print("load sweep FAILED (checksum or plan-cache violation)", file=sys.stderr)
        return 1
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.planner import plan_join
    from repro.planner.cache import DEFAULT_CACHE

    pair = _load_pair(args.left, args.right)
    if pair is None:
        return 2
    left, right = pair
    plan = plan_join(left, right, mb(args.memory_mb), cache=DEFAULT_CACHE)
    result = plan.execute(left, right) if args.execute else None
    print(plan.explain(verbose=args.verbose, result=result))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Spatial joins (PBSM / S3J / SSSJ / SHJ / R-tree) on KPE relations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic relation")
    gen.add_argument("output", help="output file (.csv or .npy)")
    gen.add_argument("--pattern", choices=sorted(PATTERNS), default="tiger")
    gen.add_argument("--n", type=int, default=10_000)
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--start-oid", type=int, default=0)
    gen.set_defaults(func=_cmd_generate)

    build = sub.add_parser(
        "build",
        help="build a memory-mapped columnar dataset (.rcd) — load once, "
        "join many (see docs/datasets.md)",
    )
    build.add_argument("output", help="output dataset file (.rcd)")
    build.add_argument(
        "--from",
        dest="source",
        default=None,
        metavar="FILE",
        help="convert an existing relation file (.csv/.npy/.rcd)",
    )
    build.add_argument(
        "--pattern",
        choices=sorted(PATTERNS),
        default=None,
        help="synthesize the relation instead of converting a file",
    )
    build.add_argument("--n", type=int, default=10_000)
    build.add_argument("--seed", type=int, default=1)
    build.add_argument("--start-oid", type=int, default=0)
    build.add_argument(
        "--sort",
        action="store_true",
        help="pre-sort rows by xl so every open also skips the kernels' x-sort",
    )
    build.set_defaults(func=_cmd_build)

    info = sub.add_parser("info", help="summarise a relation file")
    info.add_argument("relation")
    info.set_defaults(func=_cmd_info)

    join = sub.add_parser("join", help="run a spatial join on two relation files")
    join.add_argument("left")
    join.add_argument("right")
    join.add_argument("--method", choices=SPATIAL_JOIN_METHODS, default="pbsm")
    join.add_argument("--memory-mb", type=_memory_mb, default=2.5)
    join.add_argument("--internal", default=None, help="internal algorithm name")
    join.add_argument(
        "--dedup",
        default=None,
        choices=("rpm", "sort"),
        help="duplicate handling: rpm online reference-point tests, sort "
        "offline removal (sequential only)",
    )
    join.add_argument(
        "--workers",
        type=int,
        default=None,
        help="run the PBSM join phase on a warm process pool of N workers",
    )
    join.add_argument("--out", default=None, help="write result pairs as CSV")
    join.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record execution spans and write them as JSONL",
    )
    join.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write the full machine-readable statistics as JSON",
    )
    join.add_argument(
        "--verbose", action="store_true", help="per-phase cost breakdown"
    )
    join.set_defaults(func=_cmd_join)

    trace = sub.add_parser(
        "trace", help="validate and summarise a trace file written by --trace"
    )
    trace.add_argument("trace", help="trace file (JSONL, one span per line)")
    trace.add_argument(
        "--validate-only",
        action="store_true",
        help="only check the schema, print span count",
    )
    trace.add_argument(
        "--metrics",
        action="store_true",
        help="also render the trace as Prometheus text metrics",
    )
    trace.set_defaults(func=_cmd_trace)

    explain = sub.add_parser(
        "explain",
        help="plan a join with the cost-based planner and show every candidate",
    )
    explain.add_argument("left")
    explain.add_argument("right")
    explain.add_argument("--memory-mb", type=_memory_mb, default=2.5)
    explain.add_argument(
        "--execute",
        action="store_true",
        help="also run the chosen plan and report estimated vs. actual",
    )
    explain.add_argument(
        "--verbose", action="store_true", help="include the phase-level estimate"
    )
    explain.set_defaults(func=_cmd_explain)

    serve = sub.add_parser(
        "serve",
        help="run the always-on join service (see docs/serving.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="TCP port (0 picks a free one)"
    )
    serve.add_argument(
        "--unix-socket", default=None, help="serve on a unix socket instead of TCP"
    )
    serve.add_argument("--memory-mb", type=_memory_mb, default=2.5)
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="persistent worker-pool size (1 = in-process execution)",
    )
    serve.add_argument(
        "--max-inflight", type=_int_in(1), default=4, help="concurrent executing queries"
    )
    serve.add_argument(
        "--max-queue", type=_int_in(0), default=16, help="queries allowed to wait"
    )
    serve.add_argument(
        "--budget-seconds",
        type=_budget_seconds,
        default=None,
        help="reject queries whose cost estimate exceeds this (simulated s)",
    )
    serve.add_argument(
        "--page-size", type=_page_size, default=20_000, help="result pairs per page"
    )
    serve.add_argument(
        "--dataset",
        action="append",
        metavar="NAME=PATH",
        help="pre-register a relation file (repeatable)",
    )
    serve.set_defaults(func=_cmd_serve)

    load = sub.add_parser(
        "load",
        help="closed-loop load sweep against a running repro serve",
    )
    load.add_argument("--host", default="127.0.0.1")
    load.add_argument("--port", type=int, default=0)
    load.add_argument("--unix-socket", default=None)
    load.add_argument(
        "--topologies",
        default="uniform,clustered",
        help="comma-separated dataset patterns",
    )
    load.add_argument(
        "--scales", default="2000", help="comma-separated records per relation"
    )
    load.add_argument(
        "--concurrency", default="1,4", help="comma-separated client counts"
    )
    load.add_argument(
        "--repeats", type=int, default=3, help="queries per client per cell"
    )
    load.add_argument("--memory-mb", type=_memory_mb, default=2.5)
    load.add_argument(
        "--out", default=None, metavar="PATH", help="write BENCH_serve.json here"
    )
    load.set_defaults(func=_cmd_load)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
