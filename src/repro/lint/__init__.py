"""repro-lint: project-specific static analysis for cross-module invariants.

Run from the command line::

    python -m repro.lint src benchmarks tests
    python -m repro.lint src --format sarif --output lint.sarif
    python -m repro.lint src --baseline lint-baseline.json --cache .lint-cache.json
    python -m repro.lint --list-rules
    python -m repro.lint --self-test

or import the API (what ``tests/test_lint.py`` does)::

    from repro.lint import lint_source, run_lint, ALL_RULES

RPL002–RPL007 are per-statement pattern rules; RPL008–RPL012 are
flow-sensitive (CFG + forward dataflow, see :mod:`repro.lint.cfg` and
:mod:`repro.lint.dataflow`).  Each rule encodes an invariant a past PR
fixed by hand; see ``docs/static_analysis.md`` for the rule catalogue,
the baseline burn-down policy, and the inline
``# repro-lint: disable=RPLxxx`` suppression marker.
"""

from __future__ import annotations

from repro.lint.baseline import apply_baseline, load_baseline, write_baseline
from repro.lint.cache import LintCache
from repro.lint.cfg import CFG, CFGNode, build_cfg, cfg_for_function
from repro.lint.dataflow import ForwardAnalysis, run_forward
from repro.lint.engine import (
    Finding,
    ModuleInfo,
    Rule,
    iter_python_files,
    lint_source,
    run_lint,
    self_test,
)
from repro.lint.rules import ALL_RULES, RULES_BY_ID
from repro.lint.sarif import render_sarif, to_sarif

__all__ = [
    "ALL_RULES",
    "CFG",
    "CFGNode",
    "Finding",
    "ForwardAnalysis",
    "LintCache",
    "ModuleInfo",
    "RULES_BY_ID",
    "Rule",
    "apply_baseline",
    "build_cfg",
    "cfg_for_function",
    "iter_python_files",
    "lint_source",
    "load_baseline",
    "render_sarif",
    "run_forward",
    "run_lint",
    "self_test",
    "to_sarif",
    "write_baseline",
]
