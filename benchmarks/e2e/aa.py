"""A/A mode: is the benchmark steady enough to gate on its own bounds?

``--aa K`` measures the same code K times over.  One *set* is
``RUNS_PER_SET`` untraced runs of every workload, each run with another
seed; per (workload, metric) a set yields a median and a *spread* — the
distance between the first and third quartile of the runs as a share of
their median.  The benchmark passes its own A/A test when every spread
is within the metric's bound, and no later set's median is worse than
the first set's by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

from benchmarks.e2e import REPO_ROOT
from benchmarks.e2e.harness import environment, percentile, run_tmpdir
from benchmarks.e2e.specs import END_TO_END, EXACT_COUNTS, WORKLOADS, Metric

RUNS_PER_SET = 10


def spread(values: List[float]) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles(n=4)``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(metric: Metric, first: float, later: float) -> float:
    """By what share of *first* the *later* median is worse (<= 0: not worse)."""
    change = (later - first) / first
    return change if metric.better == "lower" else -change


def judge(metric: Metric, sets: List[List[float]]) -> Dict[str, Any]:
    """Medians, spreads and drift of one (workload, metric) against its bound."""
    medians = [statistics.median(values) for values in sets]
    spreads = [spread(values) for values in sets]
    drift = max(worsening(metric, medians[0], later) for later in medians[1:]) if len(sets) > 1 else 0.0
    violations = []
    if max(spreads) > metric.bound:
        violations.append(f"spread {max(spreads):.3f} > bound {metric.bound}")
    if drift > metric.bound:
        violations.append(f"drift {drift:.3f} > bound {metric.bound}")
    return {
        "unit": metric.unit,
        "bound": metric.bound,
        "medians": medians,
        "spreads": spreads,
        "drift": drift,
        "values": sets,
        "violations": violations,
    }


def _one_run(name: str, seed: int, args: argparse.Namespace, detail: Path, trace: int = 0) -> Dict[str, Any]:
    """One run in a fresh process — exactly how the driver runs the benchmark
    (a long-lived process would carry one workload's peak RSS into the next)."""
    command = [
        sys.executable, "-m", "benchmarks.e2e",
        "--workload", name, "--seed", str(seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--out", str(detail),
    ]  # fmt: skip
    if args.smoke:
        command.append("--smoke")
    subprocess.run(command, cwd=REPO_ROOT, check=True, stdout=subprocess.DEVNULL)
    return json.loads(detail.read_text())


def run_aa(args: argparse.Namespace) -> int:
    n_sets = max(1, args.aa)
    values: Dict[str, Dict[str, List[List[float]]]] = {
        spec.name: {m.name: [[] for _ in range(n_sets)] for m in END_TO_END} for spec in WORKLOADS
    }
    quartiles: Dict[str, List[List[float]]] = {spec.name: [] for spec in WORKLOADS}
    #: per set, every run's median *wall* latency and median box speed:
    #: what the spreads would be without the speed sensors
    wall: Dict[str, List[List[float]]] = {spec.name: [[] for _ in range(n_sets)] for spec in WORKLOADS}
    speeds: Dict[str, List[List[float]]] = {spec.name: [[] for _ in range(n_sets)] for spec in WORKLOADS}
    counts: Dict[str, List[Dict[str, float]]] = {spec.name: [] for spec in WORKLOADS}
    failed = 0
    with run_tmpdir() as tmpdir:
        for index in range(n_sets):
            for run_index in range(RUNS_PER_SET):
                for spec in WORKLOADS:
                    run = _one_run(spec.name, args.seed + run_index, args, tmpdir / "run.json")
                    failed += run["failed"]
                    for name, entry in run["metrics"].items():
                        values[spec.name][name][index].append(entry["value"])
                    ops = [op for block in run["blocks"] for op in block["ops"]]
                    latencies = [1000.0 * op["wall_s"] * op["speed"] for op in ops]
                    quartiles[spec.name].append([percentile(latencies, q) for q in (25, 50, 75)])
                    wall[spec.name][index].append(1000.0 * statistics.median(op["wall_s"] for op in ops))
                    speeds[spec.name][index].append(statistics.median(op["speed"] for op in ops))
                    print(
                        f"set {index + 1}/{n_sets} run {run_index + 1}/{RUNS_PER_SET} {spec.name}: "
                        + ", ".join(f"{k}={v['value']:.4g}" for k, v in run["metrics"].items()),
                        file=sys.stderr,
                    )
            for spec in WORKLOADS:
                traced = _one_run(spec.name, args.seed, args, tmpdir / "run.json", trace=1)
                failed += traced["failed"]
                counts[spec.name].append({name: traced["metrics"][name]["value"] for name in EXACT_COUNTS})
                print(f"set {index + 1}/{n_sets} traced {spec.name}", file=sys.stderr)
    report: Dict[str, Any] = {
        "sets": n_sets,
        "runs_per_set": RUNS_PER_SET,
        "seeds": [args.seed, args.seed + RUNS_PER_SET - 1],
        "run_seconds": args.seconds,
        "environment": environment(),
        "failed_ops": failed,
        "workloads": {},
    }
    violations = failed
    print(f"{'workload':16s} {'metric':12s} {'median':>10s} {'spread':>7s} {'drift':>7s} {'bound':>6s}")
    wall_note = "  (wall, not at reference speed: {:.3f})"
    for spec in WORKLOADS:
        entry = {m.name: judge(m, values[spec.name][m.name]) for m in END_TO_END}
        entry["lat_ms_quartiles_per_run"] = quartiles[spec.name]
        entry["wall_lat_p50_ms"] = {
            "values": wall[spec.name],
            "spreads": [spread(values) for values in wall[spec.name]],
        }
        entry["box_speed_per_run"] = speeds[spec.name]
        first = counts[spec.name][0]
        entry["counts"] = first
        entry["counts_that_differ"] = sorted(
            {name for later in counts[spec.name][1:] for name in first if later[name] != first[name]}
        )
        violations += len(entry["counts_that_differ"])
        report["workloads"][spec.name] = entry
        for m in END_TO_END:
            verdict = entry[m.name]
            violations += len(verdict["violations"])
            print(
                f"{spec.name:16s} {m.name:12s} {verdict['medians'][0]:>10.4g} "
                f"{max(verdict['spreads']):>7.3f} {verdict['drift']:>7.3f} {m.bound:>6.2f}"
                + (wall_note.format(max(entry["wall_lat_p50_ms"]["spreads"])) if m.name == "lat_p50_ms" else "")
                + ("  VIOLATION: " + "; ".join(verdict["violations"]) if verdict["violations"] else "")
            )
        if entry["counts_that_differ"]:
            print(f"{spec.name:16s} VIOLATION: counts differ between traced runs: {entry['counts_that_differ']}")
    report["ok"] = violations == 0
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if report["ok"] else 1
