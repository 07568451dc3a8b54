"""Command line of the benchmark (``python3 -m benchmarks.e2e``)."""

from __future__ import annotations

import argparse
import dataclasses
import json
import signal
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.e2e.specs import DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS


def _metric_document(values: Dict[str, float], metrics: Sequence[Any]) -> Dict[str, Dict[str, Any]]:
    return {m.name: {"value": values[m.name], "unit": m.unit} for m in metrics}


def _print_metrics(title: str, values: Dict[str, float], metrics: Sequence[Any]) -> None:
    print(title)
    for m in metrics:
        print(f"  {m.name:34s} {values[m.name]:>16.6g} {m.unit}")


def run_one(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    """One workload, untraced: the end-to-end metrics."""
    from benchmarks.e2e.harness import run_workload

    run = run_workload(name, args.seed, args.seconds, smoke=args.smoke)
    ops = [op for block in run.blocks for op in block.ops]
    _print_metrics(
        f"{name}: seed {args.seed}, {len(run.blocks)} blocks, {len(ops)} latency samples; "
        f"timings at reference speed (the box ran at {statistics.median(op.speed for op in ops):.2f} "
        f"of it, median wall latency {1000.0 * statistics.median(op.wall_s for op in ops):.1f} ms)",
        run.metrics,
        END_TO_END,
    )
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": _metric_document(run.metrics, END_TO_END),
        "blocks": [
            {
                "setup": dataclasses.asdict(b.setup),
                "ops": [dataclasses.asdict(op) for op in b.ops],
                "peak_rss_mb": b.peak_rss_mb,
            }
            for b in run.blocks
        ],
    }


def run_one_traced(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    """One workload, traced: the per-layer metrics; spans go to ``results/``."""
    from benchmarks.e2e.layers import RESULTS_DIR, run_traced

    run, metrics, recorder = run_traced(name, args.seed, smoke=args.smoke)
    trace_path = RESULTS_DIR / f"trace_{name}.jsonl"
    recorder.write(trace_path)
    _print_metrics(
        f"{name} (traced): seed {args.seed}, {len(recorder.spans)} spans -> {trace_path}",
        metrics,
        PER_LAYER,
    )
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": _metric_document(metrics, PER_LAYER),
        "spans": recorder.spans,
    }


def run_all(args: argparse.Namespace) -> Dict[str, Any]:
    """The whole benchmark: every workload untraced, then traced."""
    from benchmarks.e2e.harness import environment

    record: Dict[str, Any] = {
        "seed": args.seed,
        "run_seconds": args.seconds,
        "environment": environment(),
        "end_to_end": {},
        "per_layer": {},
    }
    for spec in WORKLOADS:
        record["end_to_end"][spec.name] = run_one(spec.name, args)
    spans: List[Dict[str, Any]] = []
    for spec in WORKLOADS:
        record["per_layer"][spec.name] = run_one_traced(spec.name, args)
        spans += record["per_layer"][spec.name].pop("spans")
    if args.out is not None:
        # The record carries its own trace: every span of the four traced runs.
        trace_path = args.out.with_suffix(".trace.jsonl")
        trace_path.write_text("".join(json.dumps(span) + "\n" for span in spans))
        record["trace"] = trace_path.name
    record["correct"] = all(
        entry["correct"] for part in ("end_to_end", "per_layer") for entry in record[part].values()
    )
    return record


def regen_expected() -> None:
    from benchmarks.e2e.reference import compute_expected, write_expected
    from benchmarks.e2e.specs import TIGER50K, UNI30K, make_relations

    entries = {}
    for dataset in (TIGER50K, UNI30K):
        entries[dataset.name] = compute_expected(*make_relations(dataset, DEFAULT_SEED))
        print(f"{dataset.name}: {entries[dataset.name]}")
    write_expected(entries)


def _terminate(signum: int, frame: Any) -> None:
    # Unwind through every ``finally`` so the server and its pool go down.
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e", description=__doc__)
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS, help="timed ops per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="2k records per side")
    parser.add_argument("--out", type=Path, help="also write the record, with per-block detail, here")
    parser.add_argument("--aa", type=int, metavar="K", help="run the benchmark K times and compare")
    parser.add_argument("--regen-expected", action="store_true")
    args = parser.parse_args(argv)

    try:
        import repro  # noqa: F401 - the program under test
    except ImportError as exc:
        print(f"cannot import the program under test from src/: {exc}", file=sys.stderr)
        return 2
    if args.regen_expected:
        regen_expected()
        return 0
    if args.aa is not None:
        from benchmarks.e2e.aa import run_aa

        return run_aa(args)
    if args.workload is not None:
        result = (run_one_traced if args.trace else run_one)(args.workload, args)
        result.pop("spans", None)  # already written to results/trace_<workload>.jsonl
        if args.out is not None:
            args.out.write_text(json.dumps(result, indent=2) + "\n")
        # The contract line: exactly these keys, last on standard output.
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0
    record = run_all(args)
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
