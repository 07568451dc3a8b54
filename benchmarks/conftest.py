"""Shared helpers for the benches beyond the paper's tables.

The paper's 17 tables are ``python -m repro.bench`` experiments (``--out``
regenerates, ``--check`` gates) whose claims ``tests/test_paper_claims.py``
asserts.  The benches here (planner sweep, robustness, join classes,
kernels) run their experiment once, print it, and ``record`` it under
the gitignored ``results/fresh/``, never over a committed table: a bench
that holds one compares against ``results/<name>.txt``, and re-recording
it is a copy out of ``fresh/``.  Run one with::

    PYTHONPATH=src:. python -m pytest benchmarks/bench_planner.py -q
"""

from __future__ import annotations

import os
import platform
from pathlib import Path

from repro.pbsm.parallel import cpu_count

# Benches deliberately oversubscribe small boxes to show pool scaling.
os.environ.setdefault("REPRO_MAX_WORKERS", "4")

RESULTS_DIR = Path(__file__).parent / "results"
#: Where ``record`` writes; never a committed file.
FRESH_DIR = RESULTS_DIR / "fresh"


def environment() -> dict:
    """The execution environment every BENCH_*.json records."""
    return {
        "cpu_count": cpu_count(),
        "python": platform.python_version(),
        "platform": platform.system().lower(),
    }


def record(name: str, result, tracer=None, **meta) -> None:
    """Print an experiment result and persist it under results/fresh/.

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
    FRESH_DIR.mkdir(parents=True, exist_ok=True)
    (FRESH_DIR / f"{name}.txt").write_text(text + "\n")
    (FRESH_DIR / f"BENCH_{name}.json").write_text(
        result.to_json(environment=environment(), **meta) + "\n"
    )
    if tracer is not None and tracer.recording:
        tracer.write(FRESH_DIR / f"BENCH_{name}.trace.jsonl")


def column(result, name: str):
    """Extract one column of an ExperimentResult as a list."""
    idx = result.columns.index(name)
    return [row[idx] for row in result.rows]
