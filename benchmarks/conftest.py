"""Shared helpers for the benchmark suite.

Every bench runs one experiment from :mod:`repro.bench.experiments` exactly
once (``benchmark.pedantic(rounds=1)``), prints the reproduced table, saves
it under ``benchmarks/results/``, and asserts the *shape* claims the paper
makes about that table or figure.  Absolute numbers are not asserted — the
substrate is a simulator, not the authors' SPARCstation.

Each recorded experiment is persisted twice: the aligned text table
(``results/<name>.txt``, unchanged) and a machine-readable
``results/BENCH_<name>.json`` carrying the same rows plus the execution
environment (CPU count, Python version) and any bench-specific
metadata (workload, wall seconds, pairs/sec) passed through ``record``.

Run with::

    pytest benchmarks/ --benchmark-only

Scale is controlled by the ``REPRO_SCALE`` environment variable (default
0.10 of the paper's dataset cardinalities).
"""

from __future__ import annotations

import os
import platform
import re
from pathlib import Path

from repro.pbsm.parallel import cpu_count

# Benches deliberately oversubscribe small boxes to show pool scaling.
os.environ.setdefault("REPRO_MAX_WORKERS", "4")

RESULTS_DIR = Path(__file__).parent / "results"


def environment() -> dict:
    """The execution environment every BENCH_*.json records."""
    return {
        "cpu_count": cpu_count(),
        "python": platform.python_version(),
        "platform": platform.system().lower(),
    }


def record(name: str, result, tracer=None, **meta) -> None:
    """Print an experiment result and persist it under results/.

    Writes the aligned text table to ``<name>.txt`` and a JSON document to
    ``BENCH_<name>.json``.  Extra keyword arguments (``workload=...``,
    ``wall_seconds=...``, ``pairs_per_second=...``) are embedded in the
    JSON so downstream tooling needs no table parsing.

    A recording :class:`~repro.obs.Tracer` is persisted alongside as
    ``BENCH_<name>.trace.jsonl`` — the span-level view of the same run
    (``python -m repro trace`` summarises it).
    """
    text = result.to_text()
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    (RESULTS_DIR / f"BENCH_{name}.json").write_text(
        result.to_json(environment=environment(), **meta) + "\n"
    )
    if tracer is not None and tracer.recording:
        tracer.write(RESULTS_DIR / f"BENCH_{name}.trace.jsonl")


def column(result, name: str):
    """Extract one column of an ExperimentResult as a list."""
    idx = result.columns.index(name)
    return [row[idx] for row in result.rows]


def table_cells(text):
    """``{column: [cell, ...]}`` of a rendered result table, each row cut
    at the spans of the dashed rule under the header."""
    lines = text.splitlines()
    rule = next(i for i, line in enumerate(lines) if re.fullmatch(r"-+( +-+)*", line))
    spans = [m.span() for m in re.finditer(r"-+", lines[rule])]
    rows = []
    for line in lines[rule + 1 :]:
        if line.startswith("note:"):
            break
        rows.append([line[a:b].strip() for a, b in spans])
    header = [lines[rule - 1][a:b].strip() for a, b in spans]
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}
